#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace daakg {
namespace obs {

namespace trace_internal {
std::atomic<uint64_t> g_generation{0};
}  // namespace trace_internal

namespace {

using trace_internal::g_generation;
using trace_internal::NowNs;

// ---------------------------------------------------------------------------
// Per-thread event buffers.
//
// Memory model: each buffer has exactly one writer — the thread that
// registered it. The writer fills slots_[head] and then publishes with a
// release store of head + 1; collectors (Stop(), under the session mutex)
// acquire-load head and read only [0, head), so every slot they touch was
// published by its writer. Buffers are owned by the leaked session state and
// reused across sessions: slots left over from an earlier session carry a
// stale `gen` tag and are filtered at collection, which also makes the rare
// straggler (a span constructed under an old generation finishing after a
// new session started) benign — its event lands tagged with the old gen.

struct Slot {
  TraceEvent event;
  uint64_t gen = 0;
};

struct ThreadBuffer {
  std::vector<Slot> slots;
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> dropped{0};
  uint32_t tid = 0;
};

struct SessionState {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  size_t capacity = TraceSession::kDefaultEventsPerThread;
  uint64_t session_start_ns = 0;
  uint64_t active_gen = 0;  // the odd generation while active, else 0
  std::string export_path;
  bool atexit_registered = false;
};

SessionState& State() {
  static SessionState* state = new SessionState();
  return *state;
}

std::atomic<uint64_t> g_next_span_id{1};

uint64_t NextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

// Current innermost tracing span on this thread; 0 at top level.
thread_local uint64_t t_parent_span_id = 0;

// Cached buffer for the fast emit path; revalidated when the session
// generation moves past the cached one.
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_buffer_gen = 0;

ThreadBuffer* AcquireBuffer(uint64_t gen) {
  if (t_buffer != nullptr && t_buffer_gen == gen) return t_buffer;
  SessionState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  // The span's session may have ended (or ended and restarted) since the
  // span began; only record into the generation it was opened under.
  if (st.active_gen != gen) return nullptr;
  if (t_buffer == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    buf->tid = static_cast<uint32_t>(st.buffers.size() + 1);
    buf->slots.resize(st.capacity);
    t_buffer = buf.get();
    st.buffers.push_back(std::move(buf));
  } else if (t_buffer->slots.size() != st.capacity) {
    // Owner-thread resize, serialized with collectors by st.mu.
    t_buffer->slots.resize(st.capacity);
  }
  t_buffer_gen = gen;
  return t_buffer;
}

void EmitEvent(uint64_t gen, const TraceEvent& event) {
  ThreadBuffer* buf = AcquireBuffer(gen);
  if (buf == nullptr) return;
  // Acquire pairs with Start()'s release reset of head: an old-generation
  // straggler that slipped past the TLS cache and observes the reset also
  // sees (happens-after) the previous Stop()'s slot reads, so overwriting
  // slot 0 is ordered; one that still observes its own stale head writes a
  // slot past the collected region instead. Either way the slot lands
  // tagged with the old gen and is filtered at the next collection.
  const uint64_t idx = buf->head.load(std::memory_order_acquire);
  if (idx >= buf->slots.size()) {
    // Drop-newest: keeps the earliest (outermost, structural) spans intact
    // rather than evicting the parents later events would nest under.
    buf->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = buf->slots[idx];
  slot.event = event;
  slot.event.tid = buf->tid;
  slot.gen = gen;
  buf->head.store(idx + 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// ThreadPool observer: the daakg.pool.tasks_executed counter plus a
// synthetic "pool.task" span on the executing thread whose parent is the
// span that was current on the enqueuing thread, so ParallelFor worker
// slices nest under their enqueuing span in the exported trace.

struct TaskScope {
  uint64_t prev_parent = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t gen = 0;
  uint64_t start_ns = 0;
  bool traced = false;
};

thread_local std::vector<TaskScope> t_task_stack;

uint64_t PoolCaptureContext() {
  if (!TraceEnabled()) return 0;
  return t_parent_span_id;
}

void PoolTaskBegin(uint64_t context) {
  TaskScope scope;
  scope.prev_parent = t_parent_span_id;
  const uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if ((gen & 1) != 0) {
    scope.traced = true;
    scope.gen = gen;
    scope.id = NextSpanId();
    scope.parent = context;
    scope.start_ns = NowNs();
    t_parent_span_id = scope.id;
  }
  t_task_stack.push_back(scope);
}

void PoolTaskEnd() {
  static Counter* executed =
      GlobalMetrics().GetCounter("daakg.pool.tasks_executed");
  executed->Increment();
  if (t_task_stack.empty()) return;
  const TaskScope scope = t_task_stack.back();
  t_task_stack.pop_back();
  t_parent_span_id = scope.prev_parent;
  if (!scope.traced) return;
  TraceEvent event;
  event.name = "pool.task";
  event.cat = "pool";
  event.ts_ns = scope.start_ns;
  event.dur_ns = NowNs() - scope.start_ns;
  event.id = scope.id;
  event.parent_id = scope.parent;
  EmitEvent(scope.gen, event);
}

constexpr ThreadPoolObserver kPoolObserver = {
    &PoolCaptureContext,
    &PoolTaskBegin,
    &PoolTaskEnd,
};

void ExportAtExit() {
  SessionState& st = State();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    path = st.export_path;
  }
  if (path.empty() || !TraceEnabled()) return;
  const Status status = TraceSession::Global().StopAndWriteJson(path);
  if (!status.ok()) {
    LOG_WARNING << "failed to export trace to " << path << ": " << status;
  }
}

// Installs the pool observer and honors DAAKG_TRACE=<path>. This TU is
// linked into every binary that emits a TraceSpan (the inline constructor
// references g_generation), which is exactly the set that needs the hooks.
struct TraceGlobalInit {
  TraceGlobalInit() {
    SetThreadPoolObserver(&kPoolObserver);
    const char* path = std::getenv("DAAKG_TRACE");
    if (path != nullptr && path[0] != '\0') {
      const Status status =
          TraceSession::Global().StartWithExportAtExit(path);
      if (!status.ok()) {
        LOG_WARNING << "DAAKG_TRACE: " << status;
      }
    }
  }
};

TraceGlobalInit g_trace_global_init;

}  // namespace

// ---------------------------------------------------------------------------
// TraceSpan

void TraceSpan::BeginTracing(uint64_t gen) {
  gen_ = gen;
  id_ = NextSpanId();
  parent_id_ = t_parent_span_id;
  t_parent_span_id = id_;
}

double TraceSpan::Finish() {
  if (finished_) return seconds_;
  finished_ = true;
  const uint64_t dur_ns = NowNs() - start_ns_;
  // The returned seconds and the trace duration come from one integer.
  seconds_ = static_cast<double>(dur_ns) * 1e-9;
  if (id_ != 0) {
    t_parent_span_id = parent_id_;
    TraceEvent event;
    event.name = name_;
    event.cat = cat_;
    event.ts_ns = start_ns_;  // absolute here; rebased at collection
    event.dur_ns = dur_ns;
    event.id = id_;
    event.parent_id = parent_id_;
    event.num_args = num_args_;
    for (uint32_t i = 0; i < num_args_; ++i) event.args[i] = args_[i];
    EmitEvent(gen_, event);
  }
  return seconds_;
}

// ---------------------------------------------------------------------------
// TraceSession

TraceSession& TraceSession::Global() {
  static TraceSession* session = new TraceSession();
  return *session;
}

Status TraceSession::Start(size_t events_per_thread) {
  if (events_per_thread == 0) {
    return InvalidArgumentError("events_per_thread must be positive");
  }
  SessionState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  const uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if ((gen & 1) != 0) {
    return FailedPreconditionError("a trace session is already active");
  }
  st.capacity = events_per_thread;
  for (auto& buf : st.buffers) {
    // Release pairs with the writer's acquire load in EmitEvent (see there):
    // it carries the previous session's collection past the reset so a
    // straggler reusing slot 0 does not race with Stop()'s reads.
    buf->head.store(0, std::memory_order_release);
    buf->dropped.store(0, std::memory_order_relaxed);
    // A capacity change is applied lazily by each buffer's owner thread the
    // first time it emits under the new generation (AcquireBuffer).
  }
  st.session_start_ns = NowNs();
  st.active_gen = gen + 1;
  g_generation.store(gen + 1, std::memory_order_release);
  return Status::Ok();
}

std::vector<TraceEvent> TraceSession::Stop() {
  SessionState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  const uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if ((gen & 1) == 0) return {};
  // Flip to even first: span fast paths go quiet immediately; anything
  // already mid-emit lands tagged with `gen` and is still collected below
  // if its head store wins the race, or harmlessly lost if not.
  g_generation.store(gen + 1, std::memory_order_release);
  st.active_gen = 0;

  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
  for (const auto& buf : st.buffers) {
    const uint64_t head =
        std::min<uint64_t>(buf->head.load(std::memory_order_acquire),
                           buf->slots.size());
    for (uint64_t i = 0; i < head; ++i) {
      const Slot& slot = buf->slots[i];
      if (slot.gen != gen) continue;  // stale slot from an earlier session
      TraceEvent event = slot.event;
      event.ts_ns = event.ts_ns > st.session_start_ns
                        ? event.ts_ns - st.session_start_ns
                        : 0;
      events.push_back(event);
    }
    dropped += buf->dropped.load(std::memory_order_relaxed);
  }
  dropped_last_session_.store(dropped, std::memory_order_relaxed);
  static Counter* dropped_counter =
      GlobalMetrics().GetCounter("daakg.obs.trace_dropped_events");
  dropped_counter->Increment(dropped);

  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

Status TraceSession::StopAndWriteJson(const std::string& path) {
  return WriteTraceJson(Stop(), path);
}

Status TraceSession::StartWithExportAtExit(const std::string& path,
                                           size_t events_per_thread) {
  DAAKG_RETURN_IF_ERROR(Start(events_per_thread));
  SessionState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  st.export_path = path;
  if (!st.atexit_registered) {
    st.atexit_registered = true;
    std::atexit(&ExportAtExit);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON export.

std::string TraceEventsToJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\": [\n";
  // Process-name metadata record; also guarantees a non-empty array.
  out +=
      "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"daakg\"}}";
  for (const TraceEvent& ev : events) {
    out += ",\n  ";
    out += StrFormat(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
        "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"span_id\": "
        "%llu, \"parent_span_id\": %llu",
        JsonEscape(ev.name).c_str(), JsonEscape(ev.cat).c_str(),
        static_cast<double>(ev.ts_ns) / 1000.0,
        static_cast<double>(ev.dur_ns) / 1000.0, ev.tid,
        static_cast<unsigned long long>(ev.id),
        static_cast<unsigned long long>(ev.parent_id));
    for (uint32_t i = 0; i < ev.num_args && i < TraceEvent::kMaxArgs; ++i) {
      out += StrFormat(", \"%s\": %s", JsonEscape(ev.args[i].key).c_str(),
                       JsonNumber(ev.args[i].value).c_str());
    }
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}";
  return out;
}

Status WriteTraceJson(const std::vector<TraceEvent>& events,
                      const std::string& path) {
  return WriteStringToFile(path, TraceEventsToJson(events) + "\n");
}

}  // namespace obs
}  // namespace daakg

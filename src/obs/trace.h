#ifndef DAAKG_OBS_TRACE_H_
#define DAAKG_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace daakg {
namespace obs {

// Structured tracing: RAII spans that time themselves and, while a
// TraceSession is active, are recorded into per-thread lock-free buffers,
// exported as Chrome trace-event JSON (load the file at ui.perfetto.dev or
// chrome://tracing).
//
// Cost contract (see DESIGN.md, "Tracing"):
//   * every TraceSpan reads the clock twice (construction and Finish()) and
//     Finish() returns the elapsed seconds, traced or not;
//   * with tracing disabled, that is all it does beyond one relaxed atomic
//     load (the session generation check): no allocation, no event;
//   * with tracing enabled, it also writes one event into the calling
//     thread's buffer (single writer); when the buffer fills, new events are
//     dropped (drop-newest) and counted.
//
// Finish()'s return value and the event's duration come from the same
// integer nanosecond count, so a caller's telemetry and the exported trace
// agree bit-for-bit.

namespace trace_internal {

// Session generation: odd while a session is active. TraceSpan's inline
// fast path loads this once (relaxed) and bails when even.
extern std::atomic<uint64_t> g_generation;

// Monotonic clock in integer nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace trace_internal

// One completed span, as collected by TraceSession::Stop(). `name` and
// `cat` point at the string literals passed to TraceSpan; `ts_ns` is
// relative to the session start.
struct TraceEvent {
  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };
  static constexpr uint32_t kMaxArgs = 3;

  const char* name = nullptr;
  const char* cat = nullptr;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t id = 0;         // unique per span, never 0 for emitted spans
  uint64_t parent_id = 0;  // 0 = root
  uint32_t tid = 0;        // small per-thread ordinal (1 = first thread seen)
  uint32_t num_args = 0;
  Arg args[kMaxArgs];
};

// Whether a trace session is currently active (one relaxed load).
inline bool TraceEnabled() {
  return (trace_internal::g_generation.load(std::memory_order_relaxed) & 1) !=
         0;
}

// RAII span. `name` and `cat` must be string literals (or otherwise outlive
// the session): they are stored by pointer, never copied. Spans nest via a
// thread-local parent pointer and must be finished in LIFO order per thread
// (scoped RAII usage guarantees this). Typical use:
//
//   TraceSpan span("active.pool_generate", "active");
//   span.AddArg("top_n", top_n);
//   ...
//   telemetry.pool_build_seconds = span.Finish();
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat)
      : name_(name), cat_(cat) {
    const uint64_t gen =
        trace_internal::g_generation.load(std::memory_order_relaxed);
    if ((gen & 1) != 0) BeginTracing(gen);
    // Clock read last, so setup cost is outside the measured window.
    start_ns_ = trace_internal::NowNs();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Finish(); }

  // Attaches a numeric argument (exported under "args" in the JSON). No-op
  // unless this span is being traced; at most TraceEvent::kMaxArgs stick.
  void AddArg(const char* key, double value) {
    if (id_ == 0 || num_args_ >= TraceEvent::kMaxArgs) return;
    args_[num_args_].key = key;
    args_[num_args_].value = value;
    ++num_args_;
  }

  // Ends the span now (instead of at destruction): emits the trace event if
  // traced and returns the elapsed seconds. Idempotent; returns the first
  // call's result after.
  double Finish();

  // The span id while traced, 0 otherwise. Exposed for tests.
  uint64_t id() const { return id_; }

 private:
  void BeginTracing(uint64_t gen);

  const char* name_;
  const char* cat_;
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;  // nonzero iff traced
  uint64_t parent_id_ = 0;
  uint64_t gen_ = 0;
  double seconds_ = 0.0;
  bool finished_ = false;
  uint32_t num_args_ = 0;
  TraceEvent::Arg args_[TraceEvent::kMaxArgs];
};

// Process-wide trace session. Buffers are per-thread and owned by the
// session singleton; they are reused (not freed) across Start/Stop cycles.
// All methods are safe to call from any thread, but Start/Stop are
// serialized internally — concurrent Start calls race benignly (one wins,
// the others get FailedPrecondition).
class TraceSession {
 public:
  static constexpr size_t kDefaultEventsPerThread = 1 << 16;

  static TraceSession& Global();

  // Begins recording. Fails with FailedPrecondition if already active.
  // `events_per_thread` sizes each thread's buffer (slots, not bytes).
  Status Start(size_t events_per_thread = kDefaultEventsPerThread);

  // Stops recording and returns every span emitted during the session,
  // sorted by start time. Returns an empty vector if no session is active.
  std::vector<TraceEvent> Stop();

  // Stop() + WriteTraceJson(events, path).
  Status StopAndWriteJson(const std::string& path);

  // Start() and register a process-exit hook that stops the session and
  // writes `path`. Used by the DAAKG_TRACE env var and --trace_json flag.
  Status StartWithExportAtExit(const std::string& path,
                               size_t events_per_thread =
                                   kDefaultEventsPerThread);

  bool active() const { return TraceEnabled(); }

  // Events dropped (buffers full) during the most recently stopped session.
  uint64_t dropped_last_session() const {
    return dropped_last_session_.load(std::memory_order_relaxed);
  }

 private:
  TraceSession() = default;

  std::atomic<uint64_t> dropped_last_session_{0};
};

// Serializes events as Chrome trace-event JSON (the {"traceEvents": [...]}
// object form). Timestamps and durations are microseconds.
std::string TraceEventsToJson(const std::vector<TraceEvent>& events);

// Writes TraceEventsToJson(events) to `path` (with a trailing newline).
Status WriteTraceJson(const std::vector<TraceEvent>& events,
                      const std::string& path);

}  // namespace obs
}  // namespace daakg

#endif  // DAAKG_OBS_TRACE_H_

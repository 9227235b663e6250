#ifndef DAAKG_OBS_TRACE_H_
#define DAAKG_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace daakg {
namespace obs {

// Structured tracing: RAII spans recorded into per-thread lock-free buffers
// while a TraceSession is active, exported as Chrome trace-event JSON
// (load the file at ui.perfetto.dev or chrome://tracing).
//
// Cost contract (see DESIGN.md, "Tracing"):
//   * with tracing disabled, a TraceSpan with no histogram costs exactly one
//     relaxed atomic load (the session generation check) — no clock read, no
//     allocation;
//   * a TraceSpan carrying a histogram (or TimingMode::kAlways) reads the
//     clock even when tracing is off, because the histogram sample / returned
//     elapsed time is needed regardless;
//   * with tracing enabled, emitting a span is two clock reads plus one
//     single-writer slot write into the calling thread's buffer; when the
//     buffer fills, new events are dropped (drop-newest) and counted.
//
// A span's histogram sample and its trace duration come from one clock-read
// pair: both are derived from the same integer nanosecond duration, so the
// exported trace and the metrics JSON agree bit-for-bit.

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

// Controls whether a TraceSpan reads the clock when tracing is disabled.
enum class TimingMode {
  // Clock is read only if tracing is active or a histogram was supplied.
  // Finish() returns 0.0 when neither holds.
  kLazy,
  // Clock is always read; Finish() always returns the elapsed seconds.
  // For call sites that feed telemetry structs besides the histogram.
  kAlways,
};

// RAII span. `name` and `cat` must be string literals (or otherwise outlive
// the session): they are stored by pointer, never copied. Spans nest via a
// thread-local parent pointer and must be finished in LIFO order per thread
// (scoped RAII usage guarantees this). Typical use:
//
//   static Histogram* timing =
//       GlobalMetrics().GetHistogram("daakg.active.pool_build_seconds");
//   TraceSpan span("active.pool_generate", "active", timing);
//   span.AddArg("top_n", top_n);
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat,
                     Histogram* histogram = nullptr,
                     TimingMode mode = TimingMode::kLazy)
      : histogram_(histogram) {
    const uint64_t gen =
        trace_internal::g_generation.load(std::memory_order_relaxed);
    if ((gen & 1) == 0) {
      if (histogram == nullptr && mode == TimingMode::kLazy) return;  // kIdle
      state_ = State::kTimerOnly;
      start_ns_ = trace_internal::NowNs();
      return;
    }
    state_ = State::kTracing;
    BeginTracing(name, cat, gen);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (state_ != State::kIdle) Finish();
  }

  // Attaches a numeric argument (exported under "args" in the JSON). No-op
  // unless this span is actively tracing; at most TraceEvent::kMaxArgs stick.
  void AddArg(const char* key, double value) {
    if (state_ != State::kTracing || num_args_ >= TraceEvent::kMaxArgs) return;
    args_[num_args_].key = key;
    args_[num_args_].value = value;
    ++num_args_;
  }

  // Ends the span now (instead of at destruction): records the histogram
  // sample, emits the trace event, and returns the elapsed seconds (0.0 in
  // kLazy idle state). Idempotent; returns the first call's result after.
  double Finish();

  // The span id while tracing, 0 otherwise. Exposed for tests.
  uint64_t id() const { return id_; }

 private:
  enum class State : uint8_t { kIdle, kTimerOnly, kTracing };

  void BeginTracing(const char* name, const char* cat, uint64_t gen);

  Histogram* histogram_;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t gen_ = 0;
  double finished_seconds_ = 0.0;
  State state_ = State::kIdle;
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

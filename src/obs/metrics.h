#ifndef DAAKG_OBS_METRICS_H_
#define DAAKG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace daakg {
namespace obs {

// Run-wide observability primitives. Design constraints (see DESIGN.md,
// "Observability"):
//   * handles returned by MetricsRegistry are stable for the registry's
//     lifetime — callers hoist them out of hot loops and increment lock-free;
//   * every mutation is a relaxed atomic op, safe under ThreadPool fan-out;
//     the registry mutex guards registration only;
//   * names follow `daakg.<layer>.<metric>` (e.g.
//     `daakg.active.oracle_queries`).
// Phase times are not metrics: they come from TraceSpan (obs/trace.h).

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written level (pool sizes, partition counts, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Owns named metrics. Get*() registers on first use and always returns the
// same pointer for the same name afterwards; pointers stay valid until the
// registry is destroyed (Reset() zeroes values in place, it never
// deallocates). The same name may back a counter and a gauge simultaneously
// (they live in separate namespaces), but instrumentation should not rely on
// that.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  // Snapshots for exporters, sorted by name.
  std::vector<std::pair<std::string, const Counter*>> Counters() const;
  std::vector<std::pair<std::string, const Gauge*>> Gauges() const;

  // Zeroes every metric; previously returned handles remain valid.
  void Reset();

 private:
  mutable std::mutex mu_;
  // std::map: node-based, so value addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

// Process-wide registry the library's built-in instrumentation writes to.
MetricsRegistry& GlobalMetrics();

}  // namespace obs
}  // namespace daakg

#endif  // DAAKG_OBS_METRICS_H_

#ifndef DAAKG_OBS_JSON_EXPORTER_H_
#define DAAKG_OBS_JSON_EXPORTER_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace daakg {
namespace obs {

// Serializes a registry snapshot as a JSON object:
//
//   {
//     "counters": { "daakg.active.oracle_queries": 120, ... },
//     "gauges":   { "daakg.active.pool_size": 4096.0, ... }
//   }
//
// Both sections are sorted by name. Phase times are not here: they are in
// the trace (TraceSession) and in the telemetry structs the callers fill.
std::string MetricsToJson(const MetricsRegistry& registry);

// Writes MetricsToJson(registry) to `path` (with a trailing newline).
Status WriteMetricsJson(const MetricsRegistry& registry,
                        const std::string& path);

}  // namespace obs
}  // namespace daakg

#endif  // DAAKG_OBS_JSON_EXPORTER_H_

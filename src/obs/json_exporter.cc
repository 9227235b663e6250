#include "obs/json_exporter.h"

#include <cstdint>
#include <string>

#include "common/file_util.h"
#include "common/string_util.h"

namespace daakg {
namespace obs {

std::string MetricsToJson(const MetricsRegistry& registry) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : registry.Counters()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\n    \"%s\": %llu", JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(counter->Value()));
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : registry.Gauges()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\n    \"%s\": %s", JsonEscape(name).c_str(),
                     JsonNumber(gauge->Value()).c_str());
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

Status WriteMetricsJson(const MetricsRegistry& registry,
                        const std::string& path) {
  return WriteStringToFile(path, MetricsToJson(registry) + "\n");
}

}  // namespace obs
}  // namespace daakg

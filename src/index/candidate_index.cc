#include "index/candidate_index.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "index/internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"

namespace daakg {

Status CandidateIndexConfig::Validate() const {
  switch (backend) {
    case IndexChoice::kAuto:
    case IndexChoice::kExact:
    case IndexChoice::kIvf:
      break;
    default:
      return InvalidArgumentError("index.backend holds an out-of-range value");
  }
  if (nprobe == 0) {
    return InvalidArgumentError("index.nprobe must be positive");
  }
  if (nlist > 0 && nprobe > nlist) {
    return InvalidArgumentError("index.nprobe must not exceed index.nlist");
  }
  if (kmeans_iters <= 0) {
    return InvalidArgumentError("index.kmeans_iters must be positive");
  }
  return Status::Ok();
}

bool ParseIndexChoice(const char* value, IndexChoice* out) {
  if (value == nullptr) return false;
  if (std::strcmp(value, "exact") == 0) {
    *out = IndexChoice::kExact;
    return true;
  }
  if (std::strcmp(value, "ivf") == 0) {
    *out = IndexChoice::kIvf;
    return true;
  }
  if (std::strcmp(value, "auto") == 0) {
    *out = IndexChoice::kAuto;
    return true;
  }
  return false;
}

const char* IndexBackendName(IndexBackendKind kind) {
  switch (kind) {
    case IndexBackendKind::kExact:
      return "exact";
    case IndexBackendKind::kIvf:
      return "ivf";
  }
  return "unknown";
}

const char* IndexChoiceName(IndexChoice choice) {
  switch (choice) {
    case IndexChoice::kAuto:
      return "auto";
    case IndexChoice::kExact:
      return "exact";
    case IndexChoice::kIvf:
      return "ivf";
  }
  return "unknown";
}

namespace {

// The kAuto backend, decided once per process from DAAKG_INDEX — same shape
// as the DAAKG_SIMD resolution in tensor/simd/dispatch.cc: log the decision,
// warn on unrecognized values, publish a gauge.
IndexBackendKind ResolveAutoBackend() {
  IndexBackendKind kind = IndexBackendKind::kExact;
  std::string why = "default";
  const char* env = std::getenv("DAAKG_INDEX");
  if (env != nullptr && env[0] != '\0') {
    IndexChoice choice = IndexChoice::kAuto;
    if (ParseIndexChoice(env, &choice) && choice != IndexChoice::kAuto) {
      kind = choice == IndexChoice::kIvf ? IndexBackendKind::kIvf
                                         : IndexBackendKind::kExact;
      why = std::string("DAAKG_INDEX=") + env;
    } else {
      LOG_WARNING << "Unrecognized DAAKG_INDEX value '" << env
                  << "' (expected exact|ivf); using exact";
      why = "default (bad DAAKG_INDEX)";
    }
  }
  LOG_INFO << "index: auto candidate-index backend '" << IndexBackendName(kind)
           << "' selected (" << why << ")";
  obs::GlobalMetrics()
      .GetGauge("daakg.index.auto_backend")
      ->Set(static_cast<double>(kind));
  return kind;
}

}  // namespace

IndexBackendKind ResolveIndexBackend(IndexChoice choice) {
  switch (choice) {
    case IndexChoice::kExact:
      return IndexBackendKind::kExact;
    case IndexChoice::kIvf:
      return IndexBackendKind::kIvf;
    case IndexChoice::kAuto:
      break;
  }
  static const IndexBackendKind auto_kind = ResolveAutoBackend();
  return auto_kind;
}

void UnitNormalizeRow(float* row, size_t dim) {
  // Exact Vector::Normalize arithmetic: double-accumulated squared norm
  // narrowed to float, float sqrt, then one reciprocal multiply per element
  // (the dispatched scale kernel is bit-identical to this loop on every
  // backend — rounding contract in tensor/simd/simd.h).
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    acc += static_cast<double>(row[i]) * row[i];
  }
  const float n = std::sqrt(static_cast<float>(acc));
  if (n > 0.0f) {
    const float inv = 1.0f / n;
    for (size_t i = 0; i < dim; ++i) row[i] *= inv;
  }
}

void UnitNormalizeRows(Matrix* m) {
  const size_t dim = m->cols();
  GlobalThreadPool().ParallelFor(
      m->rows(), [m, dim](size_t r) { UnitNormalizeRow(m->RowData(r), dim); });
}

CandidateIndex::CandidateIndex(Matrix base, const CandidateIndexConfig& config)
    : base_(std::move(base)), config_(config) {
  if (config_.normalize) UnitNormalizeRows(&base_);
  build_stats_.rows = base_.rows();
  build_stats_.dim = base_.cols();
}

const char* CandidateIndex::name() const {
  return IndexBackendName(backend());
}

float CandidateIndex::Score(const float* query, uint32_t base_row) const {
  const simd::Ops& ops = simd::Resolve(config_.kernel.backend);
  return ops.dot(query, base_.RowData(base_row), base_.cols());
}

StatusOr<std::unique_ptr<CandidateIndex>> CandidateIndex::Build(
    Matrix base, const CandidateIndexConfig& config) {
  static obs::Counter* builds =
      obs::GlobalMetrics().GetCounter("daakg.index.builds");
  static obs::Histogram* build_timing =
      obs::GlobalMetrics().GetHistogram("daakg.index.build_seconds");
  static obs::Counter* fallbacks =
      obs::GlobalMetrics().GetCounter("daakg.index.ann_fallbacks");
  static obs::Gauge* nlist_gauge =
      obs::GlobalMetrics().GetGauge("daakg.index.nlist");
  DAAKG_RETURN_IF_ERROR(config.Validate());
  if (base.rows() == 0 || base.cols() == 0) {
    return InvalidArgumentError("index base must be non-empty");
  }
  // Fused timing: the span feeds the build histogram and build_stats_ gets
  // the identical duration from Finish() (kAlways: stats need it regardless
  // of tracing).
  obs::TraceSpan span("index.build", "index", build_timing,
                      obs::TimingMode::kAlways);
  span.AddArg("rows", static_cast<double>(base.rows()));
  IndexBackendKind kind = ResolveIndexBackend(config.backend);
  bool fallback = false;
  if (kind == IndexBackendKind::kIvf && base.rows() < config.min_rows_for_ann) {
    kind = IndexBackendKind::kExact;
    fallback = true;
    fallbacks->Increment();
  }
  std::unique_ptr<CandidateIndex> out =
      kind == IndexBackendKind::kIvf
          ? index_internal::MakeIvfIndex(std::move(base), config)
          : index_internal::MakeExactIndex(std::move(base), config);
  out->build_stats_.ann_fallback = fallback;
  span.AddArg("nlist", static_cast<double>(out->build_stats_.nlist));
  out->build_stats_.build_seconds = span.Finish();
  builds->Increment();
  nlist_gauge->Set(static_cast<double>(out->build_stats_.nlist));
  return out;
}

namespace index_internal {

void RecordQuery(uint64_t scored_cells, uint64_t total_cells, double seconds) {
  static obs::Counter* queries =
      obs::GlobalMetrics().GetCounter("daakg.index.queries");
  static obs::Counter* scored =
      obs::GlobalMetrics().GetCounter("daakg.index.scored_cells");
  static obs::Counter* total =
      obs::GlobalMetrics().GetCounter("daakg.index.total_cells");
  static obs::Histogram* query_timing =
      obs::GlobalMetrics().GetHistogram("daakg.index.query_seconds");
  static obs::Gauge* probed_fraction =
      obs::GlobalMetrics().GetGauge("daakg.index.probed_fraction");
  queries->Increment();
  scored->Increment(scored_cells);
  total->Increment(total_cells);
  query_timing->Record(seconds);
  probed_fraction->Set(total_cells > 0 ? static_cast<double>(scored_cells) /
                                             static_cast<double>(total_cells)
                                       : 0.0);
}

void RecordCandidates(uint64_t count) {
  static obs::Counter* candidates =
      obs::GlobalMetrics().GetCounter("daakg.index.candidates");
  candidates->Increment(count);
}

}  // namespace index_internal
}  // namespace daakg

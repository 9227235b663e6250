#ifndef DAAKG_INDEX_CANDIDATE_INDEX_H_
#define DAAKG_INDEX_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"
#include "tensor/topk.h"

namespace daakg {

// Candidate-generation index (see DESIGN.md, "Candidate index").
//
// Every quadratic candidate phase of the pipeline — pool generation,
// greedy one-to-one matching, streaming ranking — reduces to the same
// primitive: given a fixed matrix of base rows and a matrix of query rows,
// find the base rows with the largest dot products per query. CandidateIndex
// lifts that primitive onto an interface with two backends:
//
//   * ExactIndex: a thin adapter over the blocked streaming kernels
//     (BlockedSimTopK / BlockedSimVisit). Bit-identical to scanning the full
//     similarity matrix — same tiles, same dispatched dot kernels.
//   * IvfIndex: an IVF-style coarse quantizer. Spherical k-means over the
//     unit-normalized base rows builds `nlist` inverted lists; each query
//     probes its `nprobe` most similar lists and *exactly re-scores* every
//     member row through the same dispatched dot kernels the blocked pass
//     uses. Scores of returned candidates are therefore bitwise identical to
//     the exact pass's cells for the same rows — only the candidate *set*
//     is approximate (bounded by list recall, measured in
//     bench/fig6_pool_recall).
//
// Backends are selected per call site through CandidateIndexConfig::backend;
// kAuto follows the process-wide DAAKG_INDEX=exact|ivf override (mirroring
// DAAKG_SIMD), defaulting to exact.

// Concrete backend of a built index.
enum class IndexBackendKind { kExact = 0, kIvf = 1 };

// Per-config backend selector. kAuto defers to the process-wide choice
// resolved once from DAAKG_INDEX (default: exact).
enum class IndexChoice { kAuto = 0, kExact = 1, kIvf = 2 };

struct CandidateIndexConfig {
  IndexChoice backend = IndexChoice::kAuto;
  // IVF: number of inverted lists; 0 picks ~sqrt(base rows). Clamped to the
  // number of base rows.
  size_t nlist = 0;
  // IVF: lists probed per query (clamped to nlist). Recall/speed knob.
  size_t nprobe = 8;
  // IVF requests on bases smaller than this fall back to ExactIndex (the
  // quadratic pass is cheaper than clustering at small n; the fallback is
  // counted in daakg.index.ann_fallbacks).
  size_t min_rows_for_ann = 4096;
  // IVF: k-means refinement iterations over the unit rows.
  int kmeans_iters = 6;
  // Unit-normalize the base rows once at build time (dot == cosine). Uses
  // the exact arithmetic of Vector::Normalize, so rows normalized here are
  // bitwise identical to rows the caller normalized per-Vector.
  bool normalize = false;
  // Seed of the k-means initialization (same seed => identical index).
  uint64_t seed = 13;
  // Tile shape / parallelism / SIMD backend of the underlying kernels.
  BlockedKernelOptions kernel;

  // Rejects non-positive nprobe/kmeans_iters and nprobe > explicit nlist
  // with InvalidArgumentError.
  Status Validate() const;
};

// What CandidateIndex::Build produced.
struct IndexBuildStats {
  IndexBackendKind backend = IndexBackendKind::kExact;
  size_t rows = 0;
  size_t dim = 0;
  size_t nlist = 0;  // 0 for exact
  // True when an IVF request was served by ExactIndex because the base had
  // fewer than min_rows_for_ann rows.
  bool ann_fallback = false;
  double build_seconds = 0.0;
};

// One ranking query for CountAbove: how many base rows score strictly
// greater than `target` against query row `query_row`?
struct RankQuery {
  uint32_t query_row;
  float target;
};

class CandidateIndex {
 public:
  virtual ~CandidateIndex() = default;

  CandidateIndex(const CandidateIndex&) = delete;
  CandidateIndex& operator=(const CandidateIndex&) = delete;

  IndexBackendKind backend() const { return build_stats_.backend; }
  const char* name() const;
  // The (possibly normalized) base rows the index was built over.
  const Matrix& base() const { return base_; }
  const CandidateIndexConfig& config() const { return config_; }
  const IndexBuildStats& build_stats() const { return build_stats_; }

  // Top-`row_k` base rows per query row and top-`col_k` query rows per base
  // row (either k may be 0 to skip that direction), both in descending
  // score order. Exact backend: identical to BlockedSimTopK(queries, base).
  // IVF backend: restricted to probed lists; scores of returned entries are
  // still bitwise exact.
  virtual SimTopK QueryTopK(const Matrix& queries, size_t row_k,
                            size_t col_k) const = 0;

  // Per query row, every candidate with score >= threshold, in ascending
  // base-row order (i.e. concatenating the rows reproduces a row-major scan
  // of the similarity matrix). Exact backend: all qualifying cells, bitwise
  // identical to the BlockedMatMulNT cells. IVF: qualifying probed cells.
  virtual std::vector<std::vector<ScoredIndex>> QueryAbove(
      const Matrix& queries, float threshold) const = 0;

  // For each RankQuery, the number of base rows scoring strictly greater
  // than its target (the streaming-ranking kernel). Exact backend: exact
  // counts; IVF: counts over probed rows only (a lower bound).
  virtual std::vector<size_t> CountAbove(
      const Matrix& queries, const std::vector<RankQuery>& rank_queries)
      const = 0;

  // Exact score of one base row against `query` (dim == base().cols()),
  // via the configured dispatched dot kernel. Available on every backend —
  // this is the exact re-scoring primitive.
  float Score(const float* query, uint32_t base_row) const;

  // Builds an index over `base` (taken by value; move in to avoid the
  // copy). Resolves the backend per `config.backend` and applies the
  // min_rows_for_ann fallback. Fails on an invalid config or an empty base.
  static StatusOr<std::unique_ptr<CandidateIndex>> Build(
      Matrix base, const CandidateIndexConfig& config);

 protected:
  CandidateIndex(Matrix base, const CandidateIndexConfig& config);

  Matrix base_;
  CandidateIndexConfig config_;
  IndexBuildStats build_stats_;
};

// Parses "exact" | "ivf" | "auto" into a choice; false on anything else.
bool ParseIndexChoice(const char* value, IndexChoice* out);

// Maps a choice onto a concrete backend. kAuto is resolved once per process
// from DAAKG_INDEX (default exact) and the decision logged, mirroring the
// DAAKG_SIMD pattern.
IndexBackendKind ResolveIndexBackend(IndexChoice choice);

const char* IndexBackendName(IndexBackendKind kind);
const char* IndexChoiceName(IndexChoice choice);

// Unit-normalizes `row` in place with the exact arithmetic of
// Vector::Normalize (double-accumulated squared norm, float sqrt, single
// reciprocal multiply; zero rows untouched).
void UnitNormalizeRow(float* row, size_t dim);
// Row-parallel UnitNormalizeRow over every row of `m`.
void UnitNormalizeRows(Matrix* m);

}  // namespace daakg

#endif  // DAAKG_INDEX_CANDIDATE_INDEX_H_

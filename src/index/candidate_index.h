#ifndef DAAKG_CANDIDATE_INDEX_H_
#define DAAKG_CANDIDATE_INDEX_H_

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
// find the base rows with the largest dot products per query.
// CandidateIndex answers it exactly: every query method is a thin adapter
// over the blocked streaming kernels (BlockedSimTopK / BlockedSimVisit), so
// its outputs are bit-identical to scanning the full similarity matrix —
// same tiles (the default BlockedKernelOptions), same dispatched dot
// kernels.

// One ranking query for CountAbove: how many base rows score strictly
// greater than `target` against query row `query_row`?
struct RankQuery {
  uint32_t query_row;
  float target;
};

class CandidateIndex {
 public:
  CandidateIndex(const CandidateIndex&) = delete;
  CandidateIndex& operator=(const CandidateIndex&) = delete;

  // The base rows the index was built over.
  const Matrix& base() const { return base_; }

  // Top-`row_k` base rows per query row and top-`col_k` query rows per base
  // row (either k may be 0 to skip that direction), both in descending
  // score order. Identical to BlockedSimTopK(queries, base).
  SimTopK QueryTopK(const Matrix& queries, size_t row_k, size_t col_k) const;

  // Per query row, every candidate with score >= threshold, in ascending
  // base-row order (i.e. concatenating the rows reproduces a row-major scan
  // of the similarity matrix), bitwise identical to the BlockedSimVisit
  // cells.
  std::vector<std::vector<ScoredIndex>> QueryAbove(const Matrix& queries,
                                                   float threshold) const;

  // For each RankQuery, the number of base rows scoring strictly greater
  // than its target (the streaming-ranking kernel).
  std::vector<size_t> CountAbove(
      const Matrix& queries, const std::vector<RankQuery>& rank_queries) const;

  // Score of one base row against `query` (dim == base().cols()), via the
  // dispatched dot kernel: the cell the scans above compute.
  float Score(const float* query, uint32_t base_row) const;

  // Builds an index over `base` (taken by value; move in to avoid the
  // copy). Fails on an empty base.
  static StatusOr<std::unique_ptr<CandidateIndex>> Build(Matrix base);

 private:
  explicit CandidateIndex(Matrix base);

  Matrix base_;
};

}  // namespace daakg

#endif  // DAAKG_CANDIDATE_INDEX_H_

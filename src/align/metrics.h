#ifndef DAAKG_ALIGN_METRICS_H_
#define DAAKG_ALIGN_METRICS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/topk.h"

namespace daakg {

// Evaluation metrics of Sect. 7.1: H@k / MRR (ranking) and
// precision / recall / F1 under the greedy one-to-one matching of [34].
//
// One matching core reads candidate cells only: the rank fold takes each
// test pair's count of strictly greater cells, the greedy sweep each row's
// cells at or above a threshold. The entity cells are streamed (the
// streaming producers below, the baselines' tile walks, PARIS's sparse
// map); the schema-sized relation and class matrices go through the dense
// producers.

struct RankingMetrics {
  double hits_at_1 = 0.0;
  double hits_at_10 = 0.0;
  double mrr = 0.0;
  size_t num_queries = 0;
};

struct PrfMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  size_t num_predicted = 0;
  size_t num_correct = 0;
};

// Candidate cells, one list per row: the row's (column, score) cells at or
// above a threshold in ascending column order. Concatenated row after row
// they are the row-major scan of the similarity matrix.
using CellRows = std::vector<std::vector<ScoredIndex>>;

// Dense producer: the cells of `sim` at or above `threshold`.
CellRows CellsAbove(const Matrix& sim, float threshold);

// Dense producer: per test pair (first, second), the number of cells of
// row `first` of `sim` strictly greater than cell (first, second).
std::vector<size_t> GreaterCounts(
    const Matrix& sim,
    const std::vector<std::pair<uint32_t, uint32_t>>& test_pairs);

// Streaming producers over the cells a * b^T (rows of `a` against rows of
// `b`, equal cols()): the BlockedSimVisit cells, bitwise the
// simd::ActiveOps().dot of the two rows, never materialized. Each adds its
// scanned cells to the counter daakg.index.scored_cells.
//
// The cells at or above `threshold`, with extra memory O(result).
CellRows CellsAbove(const Matrix& a, const Matrix& b, float threshold);
// Per test pair (first row of `a`, second row of `b`), the number of cells
// of that row strictly greater than the pair's cell. Only the distinct
// `first` rows are scanned, with extra memory O(unique_rows * dim).
std::vector<size_t> GreaterCounts(
    const Matrix& a, const Matrix& b,
    const std::vector<std::pair<uint32_t, uint32_t>>& test_pairs);

// H@1 / H@10 / MRR from each test pair's count of strictly greater cells
// (rank 1 + count: ties with the target do not worsen it), folded in
// test-pair order.
RankingMetrics FoldRanks(const std::vector<size_t>& greater);

// Greedy one-to-one matching over `rows` (columns < cols): repeatedly takes
// the highest-scoring cell whose row and column are both unused. Cells are
// sorted by score from their row-major order, so equal scores resolve the
// same way for every producer of the same cells.
std::vector<std::pair<uint32_t, uint32_t>> GreedyOneToOneMatches(
    const CellRows& rows, size_t cols);

// Precision / recall / F1 of `predicted` against `gold_pairs`. Every
// prediction counts, as in the paper (dangling elements are not excluded
// from the denominator).
PrfMetrics ScoreMatches(
    const std::vector<std::pair<uint32_t, uint32_t>>& predicted,
    const std::vector<std::pair<uint32_t, uint32_t>>& gold_pairs);

}  // namespace daakg

#endif  // DAAKG_ALIGN_METRICS_H_

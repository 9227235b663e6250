#ifndef DAAKG_ALIGN_METRICS_H_
#define DAAKG_ALIGN_METRICS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "index/candidate_index.h"
#include "tensor/matrix.h"
#include "tensor/topk.h"

namespace daakg {

// Evaluation metrics of Sect. 7.1: H@k / MRR (ranking) and
// precision / recall / F1 under the greedy one-to-one matching of [34].

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

// `sim` is a full |X1| x |X2| similarity matrix; `test_pairs` hold gold
// (first, second) index pairs. For each pair, the rank of `second` among
// all columns of row `first` is measured (1-based, optimistic tie break
// disabled: ties count as worse rank).
RankingMetrics EvaluateRanking(
    const Matrix& sim,
    const std::vector<std::pair<uint32_t, uint32_t>>& test_pairs);

// Streaming variant: ranks each test pair's target among the candidate
// scores the index produces for query row `first` of `a`, without
// materializing a * base^T (extra memory O(unique_rows * dim)). It equals
// EvaluateRanking on BlockedMatMulNT(a, base) bit-for-bit: tile cells and
// the target cell come from the same dispatched kernels, and ranks fold in
// test-pair order. `index.base()` must hold the rows of `b` (pairs'
// `second` indexes into it).
RankingMetrics EvaluateRankingStreaming(
    const CandidateIndex& index, const Matrix& a,
    const std::vector<std::pair<uint32_t, uint32_t>>& test_pairs);

// Greedy one-to-one matching: repeatedly takes the highest-similarity
// unused (row, col) pair with similarity >= threshold, then scores the
// predicted set against `gold_pairs` restricted to rows/cols that appear in
// gold (so dangling elements don't inflate the denominator is NOT done --
// the paper counts all predictions; we follow the paper).
PrfMetrics EvaluateGreedyMatching(
    const Matrix& sim,
    const std::vector<std::pair<uint32_t, uint32_t>>& gold_pairs,
    float threshold);

// Index-based variant: the predictions of GreedyOneToOneMatches(index,
// queries, threshold), scored the same way.
PrfMetrics EvaluateGreedyMatching(
    const CandidateIndex& index, const Matrix& queries,
    const std::vector<std::pair<uint32_t, uint32_t>>& gold_pairs,
    float threshold);

// Convenience: the greedy one-to-one predicted pairs themselves.
std::vector<std::pair<uint32_t, uint32_t>> GreedyOneToOneMatches(
    const Matrix& sim, float threshold);

// Index-based variant: candidate cells come from index.QueryAbove(queries,
// threshold) instead of a materialized matrix. The cell sequence matches
// the matrix scan's row-major order bit-for-bit, so the result is identical
// to GreedyOneToOneMatches(queries * base^T, thr).
std::vector<std::pair<uint32_t, uint32_t>> GreedyOneToOneMatches(
    const CandidateIndex& index, const Matrix& queries, float threshold);

}  // namespace daakg

#endif  // DAAKG_ALIGN_METRICS_H_

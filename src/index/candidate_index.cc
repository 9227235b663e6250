#include "index/candidate_index.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"

namespace daakg {
namespace {

// Counts one query batch that scored `cells` similarity cells.
void RecordQuery(uint64_t cells) {
  static obs::Counter* queries =
      obs::GlobalMetrics().GetCounter("daakg.index.queries");
  static obs::Counter* scored =
      obs::GlobalMetrics().GetCounter("daakg.index.scored_cells");
  queries->Increment();
  scored->Increment(cells);
}

}  // namespace

CandidateIndex::CandidateIndex(Matrix base) : base_(std::move(base)) {}

StatusOr<std::unique_ptr<CandidateIndex>> CandidateIndex::Build(Matrix base) {
  static obs::Counter* builds =
      obs::GlobalMetrics().GetCounter("daakg.index.builds");
  if (base.rows() == 0 || base.cols() == 0) {
    return InvalidArgumentError("index base must be non-empty");
  }
  obs::TraceSpan span("index.build", "index");
  span.AddArg("rows", static_cast<double>(base.rows()));
  builds->Increment();
  return std::unique_ptr<CandidateIndex>(
      new CandidateIndex(std::move(base)));
}

float CandidateIndex::Score(const float* query, uint32_t base_row) const {
  return simd::ActiveOps().dot(query, base_.RowData(base_row), base_.cols());
}

SimTopK CandidateIndex::QueryTopK(const Matrix& queries, size_t row_k,
                                  size_t col_k) const {
  static obs::Counter* candidates =
      obs::GlobalMetrics().GetCounter("daakg.index.candidates");
  obs::TraceSpan span("index.query_topk", "index");
  span.AddArg("queries", static_cast<double>(queries.rows()));
  SimTopK out = BlockedSimTopK(queries, base_, row_k, col_k);
  RecordQuery(static_cast<uint64_t>(queries.rows()) * base_.rows());
  uint64_t count = 0;
  for (const auto& row : out.row_topk) count += row.size();
  for (const auto& col : out.col_topk) count += col.size();
  candidates->Increment(count);
  return out;
}

std::vector<std::vector<ScoredIndex>> CandidateIndex::QueryAbove(
    const Matrix& queries, float threshold) const {
  obs::TraceSpan span("index.query_above", "index");
  span.AddArg("queries", static_cast<double>(queries.rows()));
  std::vector<std::vector<ScoredIndex>> out(queries.rows());
  // All tiles of one query row arrive from a single shard in ascending
  // column order, so each out[r] is built in ascending base-row order with
  // no synchronization.
  BlockedSimVisit(
      queries, base_,
      [&out, threshold](size_t r, size_t c0, const float* sims,
                        size_t count) {
        auto& row = out[r];
        for (size_t i = 0; i < count; ++i) {
          if (sims[i] >= threshold) {
            row.push_back(ScoredIndex{static_cast<uint32_t>(c0 + i), sims[i]});
          }
        }
      });
  RecordQuery(static_cast<uint64_t>(queries.rows()) * base_.rows());
  return out;
}

std::vector<size_t> CandidateIndex::CountAbove(
    const Matrix& queries, const std::vector<RankQuery>& rank_queries) const {
  obs::TraceSpan span("index.count_above", "index");
  span.AddArg("queries", static_cast<double>(rank_queries.size()));
  std::vector<size_t> greater(rank_queries.size(), 0);
  std::vector<std::vector<size_t>> of_row(queries.rows());
  for (size_t i = 0; i < rank_queries.size(); ++i) {
    of_row[rank_queries[i].query_row].push_back(i);
  }
  const simd::Ops& ops = simd::ActiveOps();
  // Same single-writer structure as QueryAbove: every greater[i] is only
  // touched by the shard owning query row rank_queries[i].query_row.
  BlockedSimVisit(
      queries, base_,
      [&](size_t r, size_t /*c0*/, const float* sims, size_t count) {
        for (size_t i : of_row[r]) {
          greater[i] += ops.count_greater(sims, count, rank_queries[i].target);
        }
      });
  RecordQuery(static_cast<uint64_t>(queries.rows()) * base_.rows());
  return greater;
}

}  // namespace daakg

#include "align/metrics.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"

namespace daakg {
namespace {

void CountScoredCells(uint64_t cells) {
  static obs::Counter* scored =
      obs::GlobalMetrics().GetCounter("daakg.index.scored_cells");
  scored->Increment(cells);
}

}  // namespace

RankingMetrics FoldRanks(const std::vector<size_t>& greater) {
  RankingMetrics m;
  for (size_t g : greater) {
    const size_t rank = 1 + g;
    if (rank == 1) m.hits_at_1 += 1.0;
    if (rank <= 10) m.hits_at_10 += 1.0;
    m.mrr += 1.0 / static_cast<double>(rank);
  }
  m.num_queries = greater.size();
  if (m.num_queries > 0) {
    const double n = static_cast<double>(m.num_queries);
    m.hits_at_1 /= n;
    m.hits_at_10 /= n;
    m.mrr /= n;
  }
  return m;
}

std::vector<std::pair<uint32_t, uint32_t>> GreedyOneToOneMatches(
    const CellRows& rows, size_t cols) {
  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  std::vector<std::tuple<float, uint32_t, uint32_t>> cells;
  cells.reserve(total);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const ScoredIndex& e : rows[r]) {
      cells.emplace_back(e.score, static_cast<uint32_t>(r), e.index);
    }
  }
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) > std::get<0>(b);
  });
  std::vector<bool> used_row(rows.size(), false);
  std::vector<bool> used_col(cols, false);
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  for (const auto& [score, r, c] : cells) {
    (void)score;
    if (used_row[r] || used_col[c]) continue;
    used_row[r] = true;
    used_col[c] = true;
    matches.emplace_back(r, c);
  }
  return matches;
}

PrfMetrics ScoreMatches(
    const std::vector<std::pair<uint32_t, uint32_t>>& predicted,
    const std::vector<std::pair<uint32_t, uint32_t>>& gold_pairs) {
  PrfMetrics m;
  m.num_predicted = predicted.size();
  std::vector<std::pair<uint32_t, uint32_t>> gold_sorted = gold_pairs;
  std::sort(gold_sorted.begin(), gold_sorted.end());
  for (const auto& p : predicted) {
    if (std::binary_search(gold_sorted.begin(), gold_sorted.end(), p)) {
      ++m.num_correct;
    }
  }
  if (m.num_predicted > 0) {
    m.precision = static_cast<double>(m.num_correct) /
                  static_cast<double>(m.num_predicted);
  }
  if (!gold_pairs.empty()) {
    m.recall = static_cast<double>(m.num_correct) /
               static_cast<double>(gold_pairs.size());
  }
  if (m.precision + m.recall > 0.0) {
    m.f1 = 2.0 * m.precision * m.recall / (m.precision + m.recall);
  }
  return m;
}

CellRows CellsAbove(const Matrix& sim, float threshold) {
  CellRows rows(sim.rows());
  for (uint32_t r = 0; r < sim.rows(); ++r) {
    for (uint32_t c = 0; c < sim.cols(); ++c) {
      if (sim(r, c) >= threshold) rows[r].push_back({c, sim(r, c)});
    }
  }
  return rows;
}

std::vector<size_t> GreaterCounts(
    const Matrix& sim,
    const std::vector<std::pair<uint32_t, uint32_t>>& test_pairs) {
  std::vector<size_t> greater;
  greater.reserve(test_pairs.size());
  for (const auto& [first, second] : test_pairs) {
    DAAKG_CHECK_LT(first, sim.rows());
    DAAKG_CHECK_LT(second, sim.cols());
    const float* row = sim.RowData(first);
    // Entries strictly above the target outrank it; the target's own cell
    // compares equal, so no index needs excluding.
    greater.push_back(CountGreater(row, sim.cols(), row[second]));
  }
  return greater;
}

CellRows CellsAbove(const Matrix& a, const Matrix& b, float threshold) {
  obs::TraceSpan span("index.query_above", "index");
  span.AddArg("queries", static_cast<double>(a.rows()));
  CellRows rows(a.rows());
  // All tiles of one row arrive from a single shard in ascending column
  // order, so each rows[r] is built in ascending column order with no
  // synchronization.
  BlockedSimVisit(a, b,
                  [&rows, threshold](size_t r, size_t c0, const float* sims,
                                     size_t count) {
                    auto& row = rows[r];
                    for (size_t i = 0; i < count; ++i) {
                      if (sims[i] >= threshold) {
                        row.push_back({static_cast<uint32_t>(c0 + i), sims[i]});
                      }
                    }
                  });
  CountScoredCells(static_cast<uint64_t>(a.rows()) * b.rows());
  return rows;
}

std::vector<size_t> GreaterCounts(
    const Matrix& a, const Matrix& b,
    const std::vector<std::pair<uint32_t, uint32_t>>& test_pairs) {
  if (test_pairs.empty()) return {};
  DAAKG_CHECK_EQ(a.cols(), b.cols());
  constexpr size_t kNone = std::numeric_limits<size_t>::max();

  // Compact the distinct query rows so the walk only scans them.
  std::vector<size_t> compact_of(a.rows(), kNone);
  std::vector<uint32_t> unique_rows;
  for (const auto& [first, second] : test_pairs) {
    DAAKG_CHECK_LT(first, a.rows());
    DAAKG_CHECK_LT(second, b.rows());
    if (compact_of[first] == kNone) {
      compact_of[first] = unique_rows.size();
      unique_rows.push_back(first);
    }
  }
  Matrix aq(unique_rows.size(), a.cols());
  for (size_t i = 0; i < unique_rows.size(); ++i) {
    std::copy_n(a.RowData(unique_rows[i]), a.cols(), aq.RowData(i));
  }

  obs::TraceSpan span("index.count_above", "index");
  span.AddArg("queries", static_cast<double>(test_pairs.size()));
  // Each target is the dispatched dot of its two rows: its tile cell bit for
  // bit.
  const simd::Ops& ops = simd::ActiveOps();
  std::vector<float> targets(test_pairs.size());
  std::vector<std::vector<size_t>> of_row(aq.rows());
  for (size_t i = 0; i < test_pairs.size(); ++i) {
    const size_t row = compact_of[test_pairs[i].first];
    targets[i] =
        ops.dot(aq.RowData(row), b.RowData(test_pairs[i].second), b.cols());
    of_row[row].push_back(i);
  }
  std::vector<size_t> greater(test_pairs.size(), 0);
  // Same single-writer structure as CellsAbove: every greater[i] is only
  // touched by the shard owning its query row.
  BlockedSimVisit(aq, b,
                  [&](size_t r, size_t /*c0*/, const float* sims,
                      size_t count) {
                    for (size_t i : of_row[r]) {
                      greater[i] += ops.count_greater(sims, count, targets[i]);
                    }
                  });
  CountScoredCells(static_cast<uint64_t>(aq.rows()) * b.rows());
  return greater;
}

}  // namespace daakg

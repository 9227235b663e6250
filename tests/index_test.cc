#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "align/metrics.h"
#include "common/rng.h"
#include "index/candidate_index.h"
#include "tensor/simd/simd.h"
#include "tensor/topk.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    float* row = m.RowData(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = static_cast<float>(rng.NextGaussian());
    }
  }
  return m;
}

std::unique_ptr<CandidateIndex> MustBuild(Matrix base) {
  auto built = CandidateIndex::Build(std::move(base));
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built.value());
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

TEST(IndexConfigTest, BuildRejectsEmptyBase) {
  EXPECT_FALSE(CandidateIndex::Build(Matrix()).ok());
  EXPECT_FALSE(CandidateIndex::Build(Matrix(4, 0)).ok());
}

// ---------------------------------------------------------------------------
// Bit-parity with the blocked kernels
// ---------------------------------------------------------------------------

TEST(ExactIndexTest, QueryTopKMatchesBlockedSimTopK) {
  const Matrix a = RandomMatrix(83, 24, 11);
  const Matrix b = RandomMatrix(131, 24, 12);
  auto index = MustBuild(b);
  const SimTopK expected = BlockedSimTopK(a, b, 7, 5);
  const SimTopK got = index->QueryTopK(a, 7, 5);
  // Entry-for-entry equality: same rows, same scores, same tie-break order.
  ASSERT_EQ(got.row_topk.size(), expected.row_topk.size());
  ASSERT_EQ(got.col_topk.size(), expected.col_topk.size());
  for (size_t r = 0; r < expected.row_topk.size(); ++r) {
    EXPECT_EQ(got.row_topk[r], expected.row_topk[r]) << "row " << r;
  }
  for (size_t c = 0; c < expected.col_topk.size(); ++c) {
    EXPECT_EQ(got.col_topk[c], expected.col_topk[c]) << "col " << c;
  }
}

TEST(ExactIndexTest, QueryAboveMatchesMaterializedScan) {
  const Matrix a = RandomMatrix(41, 16, 21);
  const Matrix b = RandomMatrix(67, 16, 22);
  auto index = MustBuild(b);
  const Matrix sim = testing_util::DenseSim(a, b);
  const float threshold = 0.5f;
  const auto got = index->QueryAbove(a, threshold);
  ASSERT_EQ(got.size(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    std::vector<ScoredIndex> expected;
    for (size_t c = 0; c < b.rows(); ++c) {
      if (sim(r, c) >= threshold) {
        expected.push_back(ScoredIndex{static_cast<uint32_t>(c), sim(r, c)});
      }
    }
    EXPECT_EQ(got[r], expected) << "row " << r;
  }
}

TEST(ExactIndexTest, CountAboveMatchesMaterializedRanks) {
  const Matrix a = RandomMatrix(29, 16, 31);
  const Matrix b = RandomMatrix(53, 16, 32);
  auto index = MustBuild(b);
  const Matrix sim = testing_util::DenseSim(a, b);
  std::vector<RankQuery> queries;
  Rng rng(33);
  for (int i = 0; i < 40; ++i) {
    const uint32_t r = static_cast<uint32_t>(rng.NextUint64(a.rows()));
    const uint32_t c = static_cast<uint32_t>(rng.NextUint64(b.rows()));
    queries.push_back(RankQuery{r, sim(r, c)});
  }
  const std::vector<size_t> got = index->CountAbove(a, queries);
  ASSERT_EQ(got.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    size_t expected = 0;
    const float* row = sim.RowData(queries[i].query_row);
    for (size_t c = 0; c < b.rows(); ++c) {
      if (row[c] > queries[i].target) ++expected;
    }
    EXPECT_EQ(got[i], expected) << "query " << i;
  }
}

TEST(ExactIndexTest, ScoreMatchesDispatchedDot) {
  const Matrix a = RandomMatrix(5, 48, 51);
  const Matrix b = RandomMatrix(9, 48, 52);
  auto index = MustBuild(b);
  const simd::Ops& ops = simd::ActiveOps();
  for (uint32_t row : {0u, 3u, 8u}) {
    EXPECT_EQ(index->Score(a.RowData(2), row),
              ops.dot(a.RowData(2), b.RowData(row), b.cols()));
  }
}

// ---------------------------------------------------------------------------
// Consumer parity: matching and ranking through an exact index reproduce
// the pre-refactor matrix-based outputs exactly
// ---------------------------------------------------------------------------

TEST(ExactIndexTest, GreedyMatchingParity) {
  const Matrix a = RandomMatrix(47, 16, 61);
  const Matrix b = RandomMatrix(59, 16, 62);
  auto index = MustBuild(b);
  const Matrix sim = testing_util::DenseSim(a, b);
  const float threshold = 0.3f;
  const auto expected =
      GreedyOneToOneMatches(CellsAbove(sim, threshold), sim.cols());
  const auto got =
      GreedyOneToOneMatches(index->QueryAbove(a, threshold), b.rows());
  // Full sequence equality, not just set equality: the greedy sweep order
  // (and thus conflict resolution) must match the matrix path.
  EXPECT_EQ(got, expected);
}

TEST(ExactIndexTest, StreamingRankingParity) {
  const Matrix a = RandomMatrix(31, 24, 71);
  const Matrix b = RandomMatrix(97, 24, 72);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  Rng rng(73);
  for (int i = 0; i < 50; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng.NextUint64(a.rows())),
                       static_cast<uint32_t>(rng.NextUint64(b.rows())));
  }
  const Matrix sim = testing_util::DenseSim(a, b);
  auto index = MustBuild(b);
  EXPECT_EQ(GreaterCounts(*index, a, pairs), GreaterCounts(sim, pairs));
}

}  // namespace
}  // namespace daakg

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "align/metrics.h"
#include "common/rng.h"
#include "index/candidate_index.h"
#include "tensor/simd/simd.h"
#include "tensor/topk.h"

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

// Clustered unit rows, the shape schema signatures take: `clusters` random
// unit centers, each row a center plus Gaussian noise, unit-normalized.
// This is the synthetic analogue of the fig6 pool-recall setting.
Matrix ClusteredUnitMatrix(size_t rows, size_t cols, size_t clusters,
                           double noise, uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, cols);
  for (size_t k = 0; k < clusters; ++k) {
    float* row = centers.RowData(k);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = static_cast<float>(rng.NextGaussian());
    }
    UnitNormalizeRow(row, cols);
  }
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    const float* center = centers.RowData(rng.NextUint64(clusters));
    float* row = m.RowData(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] =
          center[c] + static_cast<float>(rng.NextGaussian() * noise);
    }
    UnitNormalizeRow(row, cols);
  }
  return m;
}

std::unique_ptr<CandidateIndex> MustBuild(Matrix base,
                                          const CandidateIndexConfig& cfg) {
  auto built = CandidateIndex::Build(std::move(base), cfg);
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built.value());
}

CandidateIndexConfig ExactConfig() {
  CandidateIndexConfig cfg;
  cfg.backend = IndexChoice::kExact;
  return cfg;
}

CandidateIndexConfig IvfConfig(size_t nlist, size_t nprobe) {
  CandidateIndexConfig cfg;
  cfg.backend = IndexChoice::kIvf;
  cfg.min_rows_for_ann = 0;
  cfg.nlist = nlist;
  cfg.nprobe = nprobe;
  return cfg;
}

// ---------------------------------------------------------------------------
// Config / choice plumbing
// ---------------------------------------------------------------------------

TEST(IndexConfigTest, ValidateAcceptsDefaults) {
  EXPECT_TRUE(CandidateIndexConfig{}.Validate().ok());
}

TEST(IndexConfigTest, ValidateRejectsBadConfigs) {
  CandidateIndexConfig cfg;
  cfg.nprobe = 0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg = {};
  cfg.nlist = 4;
  cfg.nprobe = 5;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg = {};
  cfg.kmeans_iters = 0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(IndexConfigTest, BuildRejectsInvalidConfigAndEmptyBase) {
  CandidateIndexConfig bad;
  bad.nprobe = 0;
  EXPECT_FALSE(CandidateIndex::Build(RandomMatrix(4, 4, 1), bad).ok());
  EXPECT_FALSE(CandidateIndex::Build(Matrix(), ExactConfig()).ok());
}

TEST(IndexChoiceTest, ParseAndNames) {
  IndexChoice choice = IndexChoice::kAuto;
  EXPECT_TRUE(ParseIndexChoice("exact", &choice));
  EXPECT_EQ(choice, IndexChoice::kExact);
  EXPECT_TRUE(ParseIndexChoice("ivf", &choice));
  EXPECT_EQ(choice, IndexChoice::kIvf);
  EXPECT_TRUE(ParseIndexChoice("auto", &choice));
  EXPECT_EQ(choice, IndexChoice::kAuto);
  EXPECT_FALSE(ParseIndexChoice("hnsw", &choice));
  EXPECT_FALSE(ParseIndexChoice(nullptr, &choice));
  EXPECT_STREQ(IndexBackendName(IndexBackendKind::kExact), "exact");
  EXPECT_STREQ(IndexBackendName(IndexBackendKind::kIvf), "ivf");
  EXPECT_STREQ(IndexChoiceName(IndexChoice::kAuto), "auto");
}

// The CI matrix leg runs this binary under DAAKG_INDEX=exact and =ivf; the
// auto resolution must follow the override while explicit choices ignore
// it.
TEST(IndexChoiceTest, AutoBackendFollowsDaakgIndexEnv) {
  IndexBackendKind expected = IndexBackendKind::kExact;
  if (const char* env = std::getenv("DAAKG_INDEX")) {
    IndexChoice choice = IndexChoice::kAuto;
    if (ParseIndexChoice(env, &choice) && choice == IndexChoice::kIvf) {
      expected = IndexBackendKind::kIvf;
    }
  }
  EXPECT_EQ(ResolveIndexBackend(IndexChoice::kAuto), expected);
  EXPECT_EQ(ResolveIndexBackend(IndexChoice::kExact),
            IndexBackendKind::kExact);
  EXPECT_EQ(ResolveIndexBackend(IndexChoice::kIvf), IndexBackendKind::kIvf);
}

// ---------------------------------------------------------------------------
// ExactIndex: bit-parity with the blocked kernels
// ---------------------------------------------------------------------------

TEST(ExactIndexTest, QueryTopKMatchesBlockedSimTopK) {
  const Matrix a = RandomMatrix(83, 24, 11);
  const Matrix b = RandomMatrix(131, 24, 12);
  auto index = MustBuild(b, ExactConfig());
  EXPECT_EQ(index->backend(), IndexBackendKind::kExact);
  EXPECT_STREQ(index->name(), "exact");
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
  auto index = MustBuild(b, ExactConfig());
  Matrix sim;
  BlockedMatMulNT(a, b, &sim);
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
  auto index = MustBuild(b, ExactConfig());
  Matrix sim;
  BlockedMatMulNT(a, b, &sim);
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

TEST(ExactIndexTest, NormalizeAtBuildMatchesVectorNormalize) {
  const Matrix raw = RandomMatrix(37, 24, 41);
  CandidateIndexConfig cfg = ExactConfig();
  cfg.normalize = true;
  auto index = MustBuild(raw, cfg);
  for (size_t r = 0; r < raw.rows(); ++r) {
    Vector v = raw.Row(r);
    v.Normalize();
    for (size_t c = 0; c < raw.cols(); ++c) {
      EXPECT_EQ(index->base()(r, c), v[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(ExactIndexTest, ScoreMatchesDispatchedDot) {
  const Matrix a = RandomMatrix(5, 48, 51);
  const Matrix b = RandomMatrix(9, 48, 52);
  auto index = MustBuild(b, ExactConfig());
  const simd::Ops& ops = simd::Resolve(simd::Choice::kAuto);
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
  auto index = MustBuild(b, ExactConfig());
  Matrix sim;
  BlockedMatMulNT(a, b, &sim);
  const float threshold = 0.3f;
  const auto expected = GreedyOneToOneMatches(sim, threshold);
  const auto got = GreedyOneToOneMatches(*index, a, threshold);
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
  Matrix sim;
  BlockedMatMulNT(a, b, &sim);
  const RankingMetrics expected = EvaluateRanking(sim, pairs);
  auto index = MustBuild(b, ExactConfig());
  const RankingMetrics via_index = EvaluateRankingStreaming(*index, a, pairs);
  EXPECT_EQ(via_index.num_queries, expected.num_queries);
  EXPECT_EQ(via_index.hits_at_1, expected.hits_at_1);
  EXPECT_EQ(via_index.hits_at_10, expected.hits_at_10);
  EXPECT_EQ(via_index.mrr, expected.mrr);
}

// ---------------------------------------------------------------------------
// IvfIndex
// ---------------------------------------------------------------------------

TEST(IvfIndexTest, FallsBackToExactBelowMinRows) {
  const Matrix b = RandomMatrix(64, 16, 81);
  CandidateIndexConfig cfg = IvfConfig(8, 4);
  cfg.min_rows_for_ann = 1000;  // 64 < 1000 => exact
  auto index = MustBuild(b, cfg);
  EXPECT_EQ(index->backend(), IndexBackendKind::kExact);
  EXPECT_TRUE(index->build_stats().ann_fallback);
  // And the fallback really is the exact kernel.
  const Matrix a = RandomMatrix(10, 16, 82);
  const SimTopK expected = BlockedSimTopK(a, b, 5, 0);
  const SimTopK got = index->QueryTopK(a, 5, 0);
  for (size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(got.row_topk[r], expected.row_topk[r]);
  }
}

TEST(IvfIndexTest, ScoresAreBitwiseExactForReturnedCandidates) {
  const Matrix b = ClusteredUnitMatrix(600, 24, 12, 0.25, 91);
  const Matrix a = ClusteredUnitMatrix(40, 24, 12, 0.25, 92);
  auto index = MustBuild(b, IvfConfig(12, 4));
  EXPECT_EQ(index->backend(), IndexBackendKind::kIvf);
  EXPECT_EQ(index->build_stats().nlist, 12u);
  const simd::Ops& ops = simd::Resolve(simd::Choice::kAuto);
  const SimTopK topk = index->QueryTopK(a, 10, 0);
  size_t checked = 0;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (const ScoredIndex& e : topk.row_topk[r]) {
      EXPECT_EQ(e.score, ops.dot(a.RowData(r), b.RowData(e.index), b.cols()));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(IvfIndexTest, RecallFloorOnClusteredData) {
  // The fig6 synthetic shape: unit signature-like rows with cluster
  // structure. Recall of the exact per-row top-10 inside the IVF top-10
  // must clear the acceptance floor.
  // Per-coordinate noise 0.08 at dim 32 => noise norm ~0.45 of the unit
  // center: clearly clustered but far from degenerate.
  const size_t kTopK = 10;
  const Matrix b = ClusteredUnitMatrix(1500, 32, 25, 0.08, 101);
  const Matrix a = ClusteredUnitMatrix(200, 32, 25, 0.08, 102);
  auto exact = MustBuild(b, ExactConfig());
  auto ivf = MustBuild(b, IvfConfig(25, 8));
  const SimTopK exact_topk = exact->QueryTopK(a, kTopK, 0);
  const SimTopK ivf_topk = ivf->QueryTopK(a, kTopK, 0);
  size_t hit = 0, total = 0;
  for (size_t r = 0; r < a.rows(); ++r) {
    std::set<uint32_t> ivf_set;
    for (const ScoredIndex& e : ivf_topk.row_topk[r]) ivf_set.insert(e.index);
    for (const ScoredIndex& e : exact_topk.row_topk[r]) {
      ++total;
      hit += ivf_set.count(e.index);
    }
  }
  const double recall = static_cast<double>(hit) / static_cast<double>(total);
  EXPECT_GE(recall, 0.97) << "hit " << hit << " of " << total;
}

TEST(IvfIndexTest, SameSeedRebuildsProduceIdenticalCandidates) {
  const Matrix b = ClusteredUnitMatrix(800, 24, 16, 0.3, 111);
  const Matrix a = ClusteredUnitMatrix(60, 24, 16, 0.3, 112);
  auto first = MustBuild(b, IvfConfig(16, 5));
  auto second = MustBuild(b, IvfConfig(16, 5));
  const SimTopK t1 = first->QueryTopK(a, 8, 6);
  const SimTopK t2 = second->QueryTopK(a, 8, 6);
  for (size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(t1.row_topk[r], t2.row_topk[r]) << "row " << r;
  }
  for (size_t c = 0; c < b.rows(); ++c) {
    EXPECT_EQ(t1.col_topk[c], t2.col_topk[c]) << "col " << c;
  }
  const auto above1 = first->QueryAbove(a, 0.4f);
  const auto above2 = second->QueryAbove(a, 0.4f);
  EXPECT_EQ(above1, above2);
}

TEST(IvfIndexTest, ParallelBuildMatchesSerialBuild) {
  // The k-means assignment pass is row-parallel but row-independent, and
  // the centroid update is sequential either way, so a single-threaded
  // build must produce the identical index.
  const Matrix b = ClusteredUnitMatrix(700, 16, 10, 0.3, 121);
  const Matrix a = ClusteredUnitMatrix(50, 16, 10, 0.3, 122);
  CandidateIndexConfig parallel_cfg = IvfConfig(10, 4);
  CandidateIndexConfig serial_cfg = parallel_cfg;
  serial_cfg.kernel.parallel = false;
  auto parallel_index = MustBuild(b, parallel_cfg);
  auto serial_index = MustBuild(b, serial_cfg);
  const SimTopK tp = parallel_index->QueryTopK(a, 8, 0);
  const SimTopK ts = serial_index->QueryTopK(a, 8, 0);
  for (size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(tp.row_topk[r], ts.row_topk[r]) << "row " << r;
  }
}

TEST(IvfIndexTest, QueryAboveRowsAreAscendingAndExact) {
  const Matrix b = ClusteredUnitMatrix(500, 16, 8, 0.3, 131);
  const Matrix a = ClusteredUnitMatrix(30, 16, 8, 0.3, 132);
  auto index = MustBuild(b, IvfConfig(8, 3));
  const auto rows = index->QueryAbove(a, 0.5f);
  const simd::Ops& ops = simd::Resolve(simd::Choice::kAuto);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i > 0) {
        EXPECT_LT(rows[r][i - 1].index, rows[r][i].index);
      }
      EXPECT_GE(rows[r][i].score, 0.5f);
      EXPECT_EQ(rows[r][i].score,
                ops.dot(a.RowData(r), b.RowData(rows[r][i].index), b.cols()));
    }
  }
}

TEST(IvfIndexTest, CountAboveIsLowerBoundOfExact) {
  const Matrix b = ClusteredUnitMatrix(600, 16, 10, 0.3, 141);
  const Matrix a = ClusteredUnitMatrix(40, 16, 10, 0.3, 142);
  auto exact = MustBuild(b, ExactConfig());
  auto ivf = MustBuild(b, IvfConfig(10, 4));
  std::vector<RankQuery> queries;
  Rng rng(143);
  for (int i = 0; i < 30; ++i) {
    const uint32_t r = static_cast<uint32_t>(rng.NextUint64(a.rows()));
    const uint32_t c = static_cast<uint32_t>(rng.NextUint64(b.rows()));
    queries.push_back(RankQuery{r, exact->Score(a.RowData(r), c)});
  }
  const auto exact_counts = exact->CountAbove(a, queries);
  const auto ivf_counts = ivf->CountAbove(a, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_LE(ivf_counts[i], exact_counts[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace daakg

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "align/joint_model.h"
#include "align/losses.h"
#include "align/metrics.h"
#include "embedding/trainer.h"
#include "obs/metrics.h"
#include "tensor/simd/simd.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

using testing_util::MirrorTask;
using testing_util::SmallSyntheticTask;

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(LossTest, SoftmaxContrastiveProbability) {
  ContrastiveGrad g = SoftmaxContrastive(1.0, {1.0, 1.0}, 1.0);
  EXPECT_NEAR(g.p_pos, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(g.loss, -std::log(1.0 / 3.0), 1e-9);
}

TEST(LossTest, HigherPositiveScoreLowersLoss) {
  double lo = SoftmaxContrastive(0.1, {0.5, 0.5}, 10.0).loss;
  double hi = SoftmaxContrastive(0.9, {0.5, 0.5}, 10.0).loss;
  EXPECT_LT(hi, lo);
}

TEST(LossTest, GradientSignsPullPositiveUpNegativesDown) {
  ContrastiveGrad g = SoftmaxContrastive(0.5, {0.4, 0.6}, 10.0);
  EXPECT_LT(g.d_pos, 0.0);  // descending loss raises s_pos
  for (double dn : g.d_negs) EXPECT_GT(dn, 0.0);
}

TEST(LossTest, SoftmaxContrastiveGradMatchesFiniteDifference) {
  const std::vector<double> negs = {0.2, -0.1, 0.45};
  const double sharp = 7.0;
  const double s_pos = 0.3;
  ContrastiveGrad g = SoftmaxContrastive(s_pos, negs, sharp);

  const double eps = 1e-6;
  double num_dpos = (SoftmaxContrastive(s_pos + eps, negs, sharp).loss -
                     SoftmaxContrastive(s_pos - eps, negs, sharp).loss) /
                    (2 * eps);
  EXPECT_NEAR(g.d_pos, num_dpos, 1e-4);
  for (size_t j = 0; j < negs.size(); ++j) {
    auto negs_hi = negs;
    auto negs_lo = negs;
    negs_hi[j] += eps;
    negs_lo[j] -= eps;
    double num = (SoftmaxContrastive(s_pos, negs_hi, sharp).loss -
                  SoftmaxContrastive(s_pos, negs_lo, sharp).loss) /
                 (2 * eps);
    EXPECT_NEAR(g.d_negs[j], num, 1e-4);
  }
}

TEST(LossTest, FocalGradMatchesFiniteDifference) {
  const std::vector<double> negs = {0.2, 0.6};
  const double sharp = 5.0;
  const double gamma = 2.0;
  const double s_pos = 0.4;
  ContrastiveGrad g = FocalContrastive(s_pos, negs, sharp, gamma);
  const double eps = 1e-6;
  double num_dpos =
      (FocalContrastive(s_pos + eps, negs, sharp, gamma).loss -
       FocalContrastive(s_pos - eps, negs, sharp, gamma).loss) /
      (2 * eps);
  EXPECT_NEAR(g.d_pos, num_dpos, 1e-4);
}

TEST(LossTest, FocalDownWeightsWellClassifiedPairs) {
  // A confidently correct pair (p ~ 1) contributes almost nothing under
  // focal loss, but its plain softmax loss is positive.
  ContrastiveGrad plain = SoftmaxContrastive(0.95, {0.0}, 20.0);
  ContrastiveGrad focal = FocalContrastive(0.95, {0.0}, 20.0, 2.0);
  EXPECT_LT(focal.loss, plain.loss);
  EXPECT_LT(focal.loss, 1e-4);
}

TEST(LossTest, FocalMatchesPlainAtGammaZero) {
  ContrastiveGrad plain = SoftmaxContrastive(0.3, {0.5}, 10.0);
  ContrastiveGrad focal = FocalContrastive(0.3, {0.5}, 10.0, 0.0);
  EXPECT_NEAR(plain.loss, focal.loss, 1e-9);
  EXPECT_NEAR(plain.d_pos, focal.d_pos, 1e-9);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

Matrix DiagonalSim(size_t n, float diag, float off) {
  Matrix m(n, n, off);
  for (size_t i = 0; i < n; ++i) m(i, i) = diag;
  return m;
}

TEST(MetricsTest, PerfectDiagonalRanking) {
  Matrix sim = DiagonalSim(5, 0.9f, 0.1f);
  std::vector<std::pair<uint32_t, uint32_t>> test = {{0, 0}, {3, 3}};
  RankingMetrics m = EvaluateRanking(sim, test);
  EXPECT_DOUBLE_EQ(m.hits_at_1, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_EQ(m.num_queries, 2u);
}

TEST(MetricsTest, RankCountsStrictlyBetterOnly) {
  Matrix sim(1, 3);
  sim(0, 0) = 0.5f;
  sim(0, 1) = 0.9f;
  sim(0, 2) = 0.5f;  // tie with target does not worsen rank
  RankingMetrics m = EvaluateRanking(sim, {{0, 0}});
  EXPECT_DOUBLE_EQ(m.mrr, 0.5);  // rank 2
}

TEST(MetricsTest, EmptyTestSetYieldsZeroQueries) {
  Matrix sim = DiagonalSim(3, 1.0f, 0.0f);
  RankingMetrics m = EvaluateRanking(sim, {});
  EXPECT_EQ(m.num_queries, 0u);
  EXPECT_DOUBLE_EQ(m.hits_at_1, 0.0);
}

TEST(MetricsTest, GreedyMatchingIsOneToOne) {
  Matrix sim(3, 3, 0.9f);  // everything similar: greedy must still be 1-1
  auto matches = GreedyOneToOneMatches(sim, 0.5f);
  EXPECT_EQ(matches.size(), 3u);
  std::set<uint32_t> rows, cols;
  for (auto& [r, c] : matches) {
    EXPECT_TRUE(rows.insert(r).second);
    EXPECT_TRUE(cols.insert(c).second);
  }
}

TEST(MetricsTest, GreedyMatchingRespectsThreshold) {
  Matrix sim(2, 2, 0.1f);
  sim(0, 0) = 0.8f;
  auto matches = GreedyOneToOneMatches(sim, 0.5f);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (std::pair<uint32_t, uint32_t>{0, 0}));
}

TEST(MetricsTest, GreedyMatchingPrefersHigherSimilarity) {
  Matrix sim(2, 1);
  sim(0, 0) = 0.6f;
  sim(1, 0) = 0.9f;  // row 1 wins the only column
  auto matches = GreedyOneToOneMatches(sim, 0.5f);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].first, 1u);
}

TEST(MetricsTest, PrfComputation) {
  Matrix sim = DiagonalSim(4, 0.9f, 0.0f);
  sim(0, 1) = 0.95f;  // creates one wrong greedy match (0,1)
  std::vector<std::pair<uint32_t, uint32_t>> gold = {
      {0, 0}, {1, 1}, {2, 2}, {3, 3}};
  PrfMetrics m = EvaluateGreedyMatching(sim, gold, 0.5f);
  // Greedy: (0,1) first, then (2,2), (3,3); (1,1) blocked by used col? No:
  // col 1 used by (0,1), so row 1 can still take col 0? sim(1,0)=0 < thr.
  EXPECT_EQ(m.num_predicted, 3u);
  EXPECT_EQ(m.num_correct, 2u);
  EXPECT_NEAR(m.precision, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.recall, 0.5, 1e-9);
  EXPECT_NEAR(m.f1, 2 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5), 1e-9);
}

TEST(MetricsTest, PerfectPrf) {
  Matrix sim = DiagonalSim(3, 0.9f, 0.0f);
  std::vector<std::pair<uint32_t, uint32_t>> gold = {{0, 0}, {1, 1}, {2, 2}};
  PrfMetrics m = EvaluateGreedyMatching(sim, gold, 0.5f);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

// Seed-algorithm copy: ranks via a per-query serial scan (what
// EvaluateRanking did before CountGreater).
RankingMetrics RankingReference(
    const Matrix& sim,
    const std::vector<std::pair<uint32_t, uint32_t>>& test_pairs) {
  RankingMetrics m;
  for (const auto& [first, second] : test_pairs) {
    const float* row = sim.RowData(first);
    size_t rank = 1;
    for (size_t c = 0; c < sim.cols(); ++c) {
      if (c != second && row[c] > row[second]) ++rank;
    }
    if (rank == 1) m.hits_at_1 += 1.0;
    if (rank <= 10) m.hits_at_10 += 1.0;
    m.mrr += 1.0 / static_cast<double>(rank);
    ++m.num_queries;
  }
  if (m.num_queries > 0) {
    const double n = static_cast<double>(m.num_queries);
    m.hits_at_1 /= n;
    m.hits_at_10 /= n;
    m.mrr /= n;
  }
  return m;
}

TEST(MetricsTest, EvaluateRankingBitIdenticalToSerialReference) {
  Rng rng(71);
  Matrix sim(37, 53);
  sim.InitGaussian(&rng, 1.0f);
  // Inject ties so the tie-handling paths are exercised too.
  sim(5, 10) = sim(5, 20);
  sim(9, 0) = sim(9, 52);
  std::vector<std::pair<uint32_t, uint32_t>> test;
  for (uint32_t i = 0; i < 37; ++i) test.emplace_back(i, (i * 7) % 53);
  const RankingMetrics got = EvaluateRanking(sim, test);
  const RankingMetrics want = RankingReference(sim, test);
  EXPECT_EQ(got.num_queries, want.num_queries);
  EXPECT_EQ(got.hits_at_1, want.hits_at_1);
  EXPECT_EQ(got.hits_at_10, want.hits_at_10);
  EXPECT_EQ(got.mrr, want.mrr);
}

TEST(MetricsTest, GreedyMatchesBitIdenticalToSerialReference) {
  Rng rng(72);
  Matrix sim(61, 47);
  sim.InitGaussian(&rng, 1.0f);
  sim(3, 3) = sim(17, 5);  // tied scores: sort stability must not matter
  const float threshold = 0.4f;
  // Seed-algorithm copy: serial row-major collection, identical sort and
  // greedy sweep.
  std::vector<std::tuple<float, uint32_t, uint32_t>> cells;
  for (size_t r = 0; r < sim.rows(); ++r) {
    for (size_t c = 0; c < sim.cols(); ++c) {
      if (sim(r, c) >= threshold) {
        cells.emplace_back(sim(r, c), static_cast<uint32_t>(r),
                           static_cast<uint32_t>(c));
      }
    }
  }
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) > std::get<0>(b);
  });
  std::vector<bool> used_row(sim.rows(), false), used_col(sim.cols(), false);
  std::vector<std::pair<uint32_t, uint32_t>> want;
  for (const auto& [score, r, c] : cells) {
    (void)score;
    if (used_row[r] || used_col[c]) continue;
    used_row[r] = true;
    used_col[c] = true;
    want.emplace_back(r, c);
  }
  EXPECT_EQ(GreedyOneToOneMatches(sim, threshold), want);
}

TEST(MetricsTest, StreamingRankingBitMatchesMaterialized) {
  // More rows than one default tile holds on either side (64 x 256), so
  // every query's counts are summed over several tiles.
  Rng rng(73);
  Matrix a(70, 12), b(300, 12);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  std::vector<std::pair<uint32_t, uint32_t>> test;
  for (uint32_t i = 0; i < 70; ++i) test.emplace_back(i, (i * 11) % 300);
  // Repeated query rows and boundary indices.
  test.emplace_back(0, 0);
  test.emplace_back(0, 299);
  test.emplace_back(69, 299);

  Matrix sim;
  BlockedMatMulNT(a, b, &sim);
  const RankingMetrics want = EvaluateRanking(sim, test);

  auto index = CandidateIndex::Build(b, CandidateIndexConfig{});
  ASSERT_TRUE(index.ok());
  const RankingMetrics got = EvaluateRankingStreaming(**index, a, test);
  EXPECT_EQ(got.num_queries, want.num_queries);
  EXPECT_EQ(got.hits_at_1, want.hits_at_1);
  EXPECT_EQ(got.hits_at_10, want.hits_at_10);
  EXPECT_EQ(got.mrr, want.mrr);
}

TEST(MetricsTest, StreamingRankingEmptyTestSet) {
  Matrix a(4, 3), b(5, 3);
  auto index = CandidateIndex::Build(b, CandidateIndexConfig{});
  ASSERT_TRUE(index.ok());
  RankingMetrics m = EvaluateRankingStreaming(**index, a, {});
  EXPECT_EQ(m.num_queries, 0u);
  EXPECT_DOUBLE_EQ(m.mrr, 0.0);
}

// The matcher's cells are the scalar reference cosines bit for bit on
// every backend, so it selects the same pairs on every backend.
TEST(MetricsTest, GreedyMatchingInvariantAcrossSimdBackends) {
  Rng rng(74);
  Matrix a(40, 24), b(33, 24);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  // Unit rows, so cells are cosines like the real pipeline feeds the
  // matcher.
  auto normalize = [](Matrix* m) {
    for (size_t r = 0; r < m->rows(); ++r) {
      float* row = m->RowData(r);
      double sq = 0.0;
      for (size_t c = 0; c < m->cols(); ++c) {
        sq += static_cast<double>(row[c]) * row[c];
      }
      const float inv = static_cast<float>(1.0 / std::sqrt(sq));
      for (size_t c = 0; c < m->cols(); ++c) row[c] *= inv;
    }
  };
  normalize(&a);
  normalize(&b);
  Matrix sim;
  BlockedMatMulNT(a, b, &sim);
  Matrix sim_scalar(a.rows(), b.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < b.rows(); ++c) {
      sim_scalar(r, c) =
          simd::ScalarOps().dot(a.RowData(r), b.RowData(c), a.cols());
      EXPECT_EQ(sim(r, c), sim_scalar(r, c)) << "r=" << r << " c=" << c;
    }
  }
  EXPECT_EQ(GreedyOneToOneMatches(sim, 0.2f),
            GreedyOneToOneMatches(sim_scalar, 0.2f));
}

// ---------------------------------------------------------------------------
// Joint alignment model
// ---------------------------------------------------------------------------

// TransE and entity-class models of both KGs under a joint model, with the
// KGE side warm-started. Two stacks built over the same task hold equal
// parameters.
struct JointModelStack {
  explicit JointModelStack(const AlignmentTask& task) {
    KgeConfig kge;
    kge.dim = 16;
    kge.class_dim = 8;
    kge.epochs = 8;
    model1 = MakeKgeModel(KgeModelKind::kTransE, &task.kg1, kge);
    model2 = MakeKgeModel(KgeModelKind::kTransE, &task.kg2, kge);
    ec1 = std::make_unique<EntityClassModel>(model1.get(), kge);
    ec2 = std::make_unique<EntityClassModel>(model2.get(), kge);
    JointAlignConfig cfg;
    cfg.align_epochs = 10;
    joint = std::make_unique<JointAlignmentModel>(model1.get(), model2.get(),
                                                  ec1.get(), ec2.get(), cfg);
    Rng rng(44);
    model1->Init(&rng);
    model2->Init(&rng);
    ec1->Init(&rng);
    ec2->Init(&rng);
    joint->Init(&rng);
    KgeTrainer t1(model1.get(), ec1.get());
    KgeTrainer t2(model2.get(), ec2.get());
    Rng r1(45), r2(46);
    t1.Train(&r1);
    t2.Train(&r2);
  }

  std::unique_ptr<KgeModel> model1, model2;
  std::unique_ptr<EntityClassModel> ec1, ec2;
  std::unique_ptr<JointAlignmentModel> joint;
};

class JointModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = SmallSyntheticTask();
    JointModelStack stack(task_);
    model1_ = std::move(stack.model1);
    model2_ = std::move(stack.model2);
    ec1_ = std::move(stack.ec1);
    ec2_ = std::move(stack.ec2);
    joint_ = std::move(stack.joint);
  }

  AlignmentTask task_;
  std::unique_ptr<KgeModel> model1_, model2_;
  std::unique_ptr<EntityClassModel> ec1_, ec2_;
  std::unique_ptr<JointAlignmentModel> joint_;
};

// Every cache RefreshCaches() fills, compared for equality.
void ExpectSameCaches(const JointAlignmentModel& got,
                      const JointAlignmentModel& want) {
  EXPECT_TRUE(got.unit_mapped1() == want.unit_mapped1());
  EXPECT_TRUE(got.unit_repr2() == want.unit_repr2());
  EXPECT_EQ(got.entity_stats().row_max, want.entity_stats().row_max);
  EXPECT_EQ(got.entity_stats().col_max, want.entity_stats().col_max);
  EXPECT_EQ(got.entity_stats().row_lse, want.entity_stats().row_lse);
  EXPECT_EQ(got.entity_stats().col_lse, want.entity_stats().col_lse);
  EXPECT_TRUE(got.relation_sim() == want.relation_sim());
  EXPECT_TRUE(got.class_sim() == want.class_sim());
  const KnowledgeGraph& kg1 = got.kg1();
  const KnowledgeGraph& kg2 = got.kg2();
  for (EntityId e = 0; e < kg1.num_entities(); ++e) {
    EXPECT_EQ(got.EntityWeight1(e), want.EntityWeight1(e));
  }
  for (EntityId e = 0; e < kg2.num_entities(); ++e) {
    EXPECT_EQ(got.EntityWeight2(e), want.EntityWeight2(e));
  }
  for (RelationId r = 0; r < kg1.num_base_relations(); ++r) {
    EXPECT_TRUE(got.RelationMean1(r) == want.RelationMean1(r));
    EXPECT_EQ(got.RelationMeanWeightSum1(r), want.RelationMeanWeightSum1(r));
  }
  for (RelationId r = 0; r < kg2.num_base_relations(); ++r) {
    EXPECT_TRUE(got.RelationMean2(r) == want.RelationMean2(r));
    EXPECT_EQ(got.RelationMeanWeightSum2(r), want.RelationMeanWeightSum2(r));
  }
  for (ClassId c = 0; c < kg1.num_classes(); ++c) {
    EXPECT_TRUE(got.ClassMean1(c) == want.ClassMean1(c));
    EXPECT_EQ(got.ClassMeanWeightSum1(c), want.ClassMeanWeightSum1(c));
  }
  for (ClassId c = 0; c < kg2.num_classes(); ++c) {
    EXPECT_TRUE(got.ClassMean2(c) == want.ClassMean2(c));
    EXPECT_EQ(got.ClassMeanWeightSum2(c), want.ClassMeanWeightSum2(c));
  }
  // The relation and class calibration log-sum-exps, through the pairs'
  // probabilities.
  for (ElementKind kind : {ElementKind::kRelation, ElementKind::kClass}) {
    const Matrix& sim =
        kind == ElementKind::kRelation ? got.relation_sim() : got.class_sim();
    for (uint32_t a = 0; a < sim.rows(); ++a) {
      for (uint32_t b = 0; b < sim.cols(); ++b) {
        const ElementPair pair{kind, a, b};
        EXPECT_EQ(got.MatchProbability(pair), want.MatchProbability(pair));
      }
    }
  }
}

TEST_F(JointModelTest, SimilaritiesBounded) {
  joint_->RefreshCaches();
  for (int i = 0; i < 20; ++i) {
    EXPECT_GE(joint_->EntitySim(i, i), -1.0f - 1e-5f);
    EXPECT_LE(joint_->EntitySim(i, i), 1.0f + 1e-5f);
  }
  EXPECT_LE(joint_->relation_sim()(0, 0), 1.0f + 1e-5f);
  EXPECT_LE(joint_->class_sim()(0, 0), 1.0f + 1e-5f);
}

TEST_F(JointModelTest, CachedEntitySimMatchesFreshComputation) {
  joint_->RefreshCaches();
  const Matrix& unit1 = joint_->unit_mapped1();
  const Matrix& unit2 = joint_->unit_repr2();
  for (uint32_t e1 = 0; e1 < 10; ++e1) {
    for (uint32_t e2 = 0; e2 < 10; ++e2) {
      EXPECT_NEAR(simd::ActiveOps().dot(unit1.RowData(e1), unit2.RowData(e2),
                                        unit1.cols()),
                  joint_->EntitySim(e1, e2), 1e-4f);
    }
  }
}

TEST_F(JointModelTest, EntityWeightsAreRowAndColumnMaxima) {
  joint_->RefreshCaches();
  Matrix sim;
  BlockedMatMulNT(joint_->unit_mapped1(), joint_->unit_repr2(), &sim);
  for (uint32_t e1 = 0; e1 < 10; ++e1) {
    float row_max = -2.0f;
    for (size_t c = 0; c < sim.cols(); ++c) {
      row_max = std::max(row_max, sim(e1, c));
    }
    EXPECT_EQ(joint_->EntityWeight1(e1), std::max(row_max, 0.0f));
  }
}

TEST_F(JointModelTest, MeanEmbeddingsHaveEntityDim) {
  joint_->RefreshCaches();
  EXPECT_EQ(joint_->RelationMean1(0).dim(), model1_->dim());
  EXPECT_EQ(joint_->ClassMean1(0).dim(), model1_->dim());
  EXPECT_GT(joint_->RelationMeanWeightSum1(0), 0.0);
}

TEST_F(JointModelTest, MatchProbabilityInUnitIntervalAndMinOfDirections) {
  joint_->RefreshCaches();
  for (uint32_t e = 0; e < 10; ++e) {
    ElementPair pair{ElementKind::kEntity, e, e};
    double p = joint_->MatchProbability(pair);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  ElementPair rel{ElementKind::kRelation, 0, 0};
  EXPECT_LE(joint_->MatchProbability(rel), 1.0);
}

TEST_F(JointModelTest, TrainingRaisesSeedSimilarity) {
  Rng rng(47);
  SeedAlignment seed = task_.SampleSeed(0.3, &rng);
  double before = 0.0;
  for (auto& [e1, e2] : seed.entities) before += joint_->EntitySim(e1, e2);
  Rng trng(48);
  for (int e = 0; e < 20; ++e) joint_->TrainEpoch(seed, &trng, false);
  double after = 0.0;
  for (auto& [e1, e2] : seed.entities) after += joint_->EntitySim(e1, e2);
  EXPECT_GT(after, before);
}

TEST_F(JointModelTest, TrainEpochInvalidatesCaches) {
  joint_->RefreshCaches();
  EXPECT_TRUE(joint_->caches_ready());
  Rng rng(49);
  SeedAlignment seed = task_.SampleSeed(0.2, &rng);
  joint_->TrainEpoch(seed, &rng, false);
  EXPECT_FALSE(joint_->caches_ready());
}

// A refresh after any change of a parameter recomputes the caches: they
// equal those of a model that went through the same change without a
// refresh before it. The paths between them move the version of every
// model the caches read; "joint init" and "class backprop" move only the
// joint model's and an entity-class model's.
TEST_F(JointModelTest, RefreshAfterEveryMutatorMatchesFreshModel) {
  Rng seed_rng(49);
  const SeedAlignment seed = task_.SampleSeed(0.2, &seed_rng);
  const std::vector<std::pair<ElementPair, double>> semi = {
      {ElementPair{ElementKind::kEntity, 1, 1}, 1.0},
      {ElementPair{ElementKind::kRelation, 0, 0}, 0.9},
      {ElementPair{ElementKind::kClass, 0, 0}, 0.8}};
  using Mutator = std::function<void(JointModelStack*)>;
  const std::vector<std::pair<std::string, Mutator>> mutators = {
      {"kge epoch",
       [](JointModelStack* s) {
         KgeTrainer trainer(s->model2.get(), nullptr);
         Rng rng(60);
         KgeTrainStats stats;
         trainer.TrainEpoch(&rng, &stats);
       }},
      {"mutable_entities",
       [](JointModelStack* s) {
         s->model1->mutable_entities()->RowData(3)[0] += 0.5f;
       }},
      {"mutable_relations",
       [](JointModelStack* s) {
         s->model2->mutable_relations()->RowData(0)[1] -= 0.5f;
       }},
      {"entity-class epoch",
       [](JointModelStack* s) {
         const KnowledgeGraph& kg = s->model1->kg();
         for (const TypeTriplet& tt : kg.type_triplets()) {
           s->ec1->TrainPair(tt.entity, (tt.entity + 7) % kg.num_entities(),
                             tt.cls, 0.05f);
         }
       }},
      {"class backprop",
       [](JointModelStack* s) {
         Vector grad(s->ec2->class_dim());
         grad.Fill(0.1f);
         s->ec2->BackpropClassRepr(0, grad, 0.5f);
       }},
      {"joint init",
       [](JointModelStack* s) {
         Rng rng(63);
         s->joint->Init(&rng);
       }},
      {"joint epoch",
       [&seed](JointModelStack* s) {
         Rng rng(61);
         s->joint->TrainEpoch(seed, &rng, /*focal=*/false);
       }},
      {"semi epoch",
       [&semi](JointModelStack* s) {
         Rng rng(62);
         s->joint->TrainSemiEpoch(semi, &rng);
       }},
  };
  obs::Counter* refreshes =
      obs::GlobalMetrics().GetCounter("daakg.align.refresh_caches_calls");
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    JointModelStack refreshed(task_);
    refreshed.joint->RefreshCaches();
    mutate(&refreshed);
    EXPECT_FALSE(refreshed.joint->caches_ready());
    const uint64_t before = refreshes->Value();
    refreshed.joint->RefreshCaches();
    EXPECT_EQ(refreshes->Value() - before, 1u);
    EXPECT_TRUE(refreshed.joint->caches_ready());

    JointModelStack fresh(task_);
    mutate(&fresh);
    fresh.joint->RefreshCaches();
    ExpectSameCaches(*refreshed.joint, *fresh.joint);
  }
}

TEST_F(JointModelTest, RefreshWithoutChangeIsSkipped) {
  obs::Counter* refreshes =
      obs::GlobalMetrics().GetCounter("daakg.align.refresh_caches_calls");
  EXPECT_FALSE(joint_->caches_ready());
  uint64_t before = refreshes->Value();
  joint_->RefreshCaches();
  EXPECT_EQ(refreshes->Value() - before, 1u);
  EXPECT_TRUE(joint_->caches_ready());
  // Reads, however many, change no version.
  (void)joint_->MineSemiSupervision();
  (void)joint_->relation_sim()(0, 0);
  before = refreshes->Value();
  joint_->RefreshCaches();
  joint_->RefreshCaches();
  EXPECT_EQ(refreshes->Value() - before, 0u);
  EXPECT_TRUE(joint_->caches_ready());
}

// A diverged parameter shows in the gauge of the refresh that reads it:
// the NaN entity row makes its unit row and the schema means it feeds
// non-finite.
TEST_F(JointModelTest, NonFiniteRowsAreCounted) {
  obs::Gauge* nonfinite =
      obs::GlobalMetrics().GetGauge("daakg.align.nonfinite_rows");
  joint_->RefreshCaches();
  EXPECT_EQ(nonfinite->Value(), 0.0);
  model1_->mutable_entities()->RowData(3)[0] = std::nanf("");
  joint_->RefreshCaches();
  EXPECT_TRUE(std::isnan(joint_->unit_mapped1()(3, 0)));
  EXPECT_GT(nonfinite->Value(), 0.0);
}

TEST_F(JointModelTest, SemiMiningRespectsTauAndOneToOne) {
  Rng rng(50);
  SeedAlignment seed = task_.SampleSeed(0.3, &rng);
  for (int e = 0; e < 20; ++e) joint_->TrainEpoch(seed, &rng, false);
  joint_->RefreshCaches();
  auto mined = joint_->MineSemiSupervision();
  std::set<std::pair<int, uint32_t>> firsts, seconds;
  for (const auto& [pair, score] : mined) {
    EXPECT_GT(score, joint_->config().tau);
    EXPECT_TRUE(firsts.insert({static_cast<int>(pair.kind), pair.first}).second);
    EXPECT_TRUE(
        seconds.insert({static_cast<int>(pair.kind), pair.second}).second);
  }
}

TEST_F(JointModelTest, FocalEpochRuns) {
  Rng rng(51);
  SeedAlignment seed = task_.SampleSeed(0.2, &rng);
  double loss = joint_->TrainEpoch(seed, &rng, /*focal=*/true);
  EXPECT_GE(loss, 0.0);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST_F(JointModelTest, SemiEpochPullsMinedPairsUp) {
  Rng rng(52);
  SeedAlignment seed = task_.SampleSeed(0.3, &rng);
  for (int e = 0; e < 10; ++e) joint_->TrainEpoch(seed, &rng, false);
  joint_->RefreshCaches();
  std::vector<std::pair<ElementPair, double>> semi = {
      {ElementPair{ElementKind::kEntity, 1, 1}, 1.0}};
  float before = joint_->EntitySim(1, 1);
  for (int e = 0; e < 10; ++e) joint_->TrainSemiEpoch(semi, &rng);
  EXPECT_GT(joint_->EntitySim(1, 1), before);
}

TEST(JointModelNoEcTest, ClassSimFallsBackToMeans) {
  AlignmentTask task = SmallSyntheticTask();
  KgeConfig kge;
  kge.dim = 16;
  kge.epochs = 4;
  auto m1 = MakeKgeModel(KgeModelKind::kTransE, &task.kg1, kge);
  auto m2 = MakeKgeModel(KgeModelKind::kTransE, &task.kg2, kge);
  Rng rng(53);
  m1->Init(&rng);
  m2->Init(&rng);
  JointAlignConfig cfg;
  JointAlignmentModel joint(m1.get(), m2.get(), nullptr, nullptr, cfg);
  joint.Init(&rng);
  joint.RefreshCaches();
  float sim = joint.class_sim()(0, 0);
  EXPECT_GE(sim, -1.0f - 1e-5f);
  EXPECT_LE(sim, 1.0f + 1e-5f);
}

}  // namespace
}  // namespace daakg

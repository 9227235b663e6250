#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "embedding/entity_class_model.h"
#include "embedding/gradcheck.h"
#include "embedding/kge_model.h"
#include "embedding/negative_sampler.h"
#include "embedding/trainer.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

using testing_util::SmallSyntheticTask;

KgeConfig TestConfig() {
  KgeConfig cfg;
  cfg.dim = 16;
  cfg.class_dim = 8;
  cfg.epochs = 10;
  cfg.seed = 5;
  return cfg;
}

class KgeModelTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    task_ = SmallSyntheticTask();
    model_ = MakeKgeModel(ParseKgeModelKind(GetParam()).value(), &task_.kg1,
                          TestConfig());
    Rng rng(77);
    model_->Init(&rng);
  }
  AlignmentTask task_;
  std::unique_ptr<KgeModel> model_;
};

TEST_P(KgeModelTest, ScoresAreNonNegativeAndFinite) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Triplet& t =
        task_.kg1.triplets()[rng.NextUint64(task_.kg1.num_triplets())];
    float s = model_->Score(t.head, t.relation, t.tail);
    EXPECT_GE(s, 0.0f);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST_P(KgeModelTest, TrainPairIsDescentDirection) {
  // One SGD step with a small learning rate must not increase the margin
  // loss (an empirical check that every analytic gradient points downhill).
  Rng rng(2);
  NegativeSampler sampler(&task_.kg1);
  int checked = 0;
  for (int i = 0; i < 200 && checked < 25; ++i) {
    const Triplet& pos =
        task_.kg1.triplets()[rng.NextUint64(task_.kg1.num_triplets())];
    EntityId neg;
    sampler.CorruptTails(pos, &rng, 1, &neg);
    const float margin = model_->config().margin_er;
    const float before = margin + model_->Score(pos.head, pos.relation, pos.tail) -
                         model_->Score(pos.head, pos.relation, neg);
    if (before <= 0.0f) continue;  // already satisfied, no gradient
    model_->TrainPair(pos, neg, 1e-3f);
    const float after = margin + model_->Score(pos.head, pos.relation, pos.tail) -
                        model_->Score(pos.head, pos.relation, neg);
    EXPECT_LE(after, before + 1e-4f);
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST_P(KgeModelTest, TrainingSeparatesTrueFromCorrupted) {
  KgeTrainer trainer(model_.get(), nullptr);
  Rng rng(3);
  trainer.Train(&rng);
  // After training, true triplets should score lower (closer) than
  // corrupted ones on average.
  NegativeSampler sampler(&task_.kg1);
  double true_sum = 0.0, fake_sum = 0.0;
  int n = 0;
  for (int i = 0; i < 200; ++i) {
    const Triplet& t =
        task_.kg1.triplets()[rng.NextUint64(task_.kg1.num_triplets())];
    EntityId neg;
    sampler.CorruptTails(t, &rng, 1, &neg);
    true_sum += model_->Score(t.head, t.relation, t.tail);
    fake_sum += model_->Score(t.head, t.relation, neg);
    ++n;
  }
  EXPECT_LT(true_sum / n, fake_sum / n);
}

TEST_P(KgeModelTest, ReprDimensionsConsistent) {
  EXPECT_EQ(model_->EntityRepr(0).dim(), model_->dim());
  EXPECT_EQ(model_->RelationRepr(0).dim(), model_->dim());
  EXPECT_EQ(model_->LocalOptimumRelation(0, 1).dim(), model_->dim());
}

TEST_P(KgeModelTest, EstimateEdgeBoundOutputsSane) {
  Rng rng(4);
  const Triplet& t = task_.kg1.triplets()[0];
  Vector r_tilde;
  float d = -1.0f;
  model_->EstimateEdgeBound(t.head, t.relation, t.tail, 3, &rng, &r_tilde, &d);
  EXPECT_EQ(r_tilde.dim(), model_->dim());
  EXPECT_GE(d, 0.0f);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_TRUE(std::isfinite(r_tilde.Norm()));
}

TEST_P(KgeModelTest, BackpropEntityReprReducesAlignmentGap) {
  // Pulling an entity's representation toward a target with the repr
  // gradient must reduce the distance to that target.
  EntityId e = 3;
  Vector target = model_->EntityRepr(4);
  Vector repr = model_->EntityRepr(e);
  float before = EuclideanDistance(repr, target);
  // Gradient of 0.5 ||repr - target||^2 wrt repr.
  Vector grad = repr - target;
  for (int i = 0; i < 20; ++i) {
    model_->BackpropEntityRepr(e, model_->EntityRepr(e) - target, 0.05f);
  }
  float after = EuclideanDistance(model_->EntityRepr(e), target);
  EXPECT_LT(after, before);
  (void)grad;
}

INSTANTIATE_TEST_SUITE_P(AllModels, KgeModelTest,
                         ::testing::Values("transe", "rotate", "compgcn"));

// ---------------------------------------------------------------------------
// TransE analytic gradient vs finite differences
// ---------------------------------------------------------------------------

TEST(TransEGradientTest, ScoreGradientMatchesFiniteDifference) {
  AlignmentTask task = SmallSyntheticTask();
  auto model = MakeKgeModel(KgeModelKind::kTransE, &task.kg1, TestConfig());
  Rng rng(9);
  model->Init(&rng);
  const Triplet& t = task.kg1.triplets()[2];

  // Analytic: d f / d h = (h + r - t) / f.
  Vector h = model->EntityVec(t.head);
  Vector r = model->relations().Row(t.relation);
  Vector tail = model->EntityVec(t.tail);
  Vector diff = h + r - tail;
  float f = diff.Norm();
  ASSERT_GT(f, 1e-4f);
  Vector analytic = diff * (1.0f / f);

  Vector numeric = NumericalGradient(
      [&](const Vector& x) {
        Vector d2 = x + r - tail;
        return d2.Norm();
      },
      h);
  EXPECT_LT(MaxRelativeError(analytic, numeric), 5e-2f);
}

// TrainPair's returned loss is margin_er + Score(pos) - Score(neg) bit for
// bit: the step and Score share one distance (one reduction order), on
// whichever SIMD backend is active.
TEST(TransEGradientTest, TrainPairLossIsTheScoreMargin) {
  AlignmentTask task = SmallSyntheticTask();
  auto model = MakeKgeModel(KgeModelKind::kTransE, &task.kg1, TestConfig());
  Rng rng(8);
  model->Init(&rng);
  NegativeSampler sampler(&task.kg1);
  const float margin = model->config().margin_er;
  int active = 0;
  for (int i = 0; i < 40; ++i) {
    const Triplet& pos =
        task.kg1.triplets()[rng.NextUint64(task.kg1.num_triplets())];
    EntityId neg;
    sampler.CorruptTails(pos, &rng, 1, &neg);
    const float want = margin + model->Score(pos.head, pos.relation, pos.tail) -
                       model->Score(pos.head, pos.relation, neg);
    const float got = model->TrainPair(pos, neg, 0.01f);
    EXPECT_EQ(got, want > 0.0f ? want : 0.0f) << i;
    active += want > 0.0f;
  }
  EXPECT_GT(active, 10);
}

// ---------------------------------------------------------------------------
// RotatE specifics
// ---------------------------------------------------------------------------

TEST(RotatETest, RequiresEvenDimension) {
  AlignmentTask task = SmallSyntheticTask();
  KgeConfig cfg = TestConfig();
  cfg.dim = 16;
  auto model = MakeKgeModel(KgeModelKind::kRotatE, &task.kg1, cfg);
  EXPECT_EQ(model->dim(), 16u);
}

TEST(RotatETest, RelationReprIsUnitPerCoordinate) {
  AlignmentTask task = SmallSyntheticTask();
  auto model = MakeKgeModel(KgeModelKind::kRotatE, &task.kg1, TestConfig());
  Rng rng(10);
  model->Init(&rng);
  Vector repr = model->RelationRepr(0);
  for (size_t k = 0; k < repr.dim() / 2; ++k) {
    float norm = repr[2 * k] * repr[2 * k] + repr[2 * k + 1] * repr[2 * k + 1];
    EXPECT_NEAR(norm, 1.0f, 1e-5f);  // (cos, sin) pairs
  }
}

TEST(RotatETest, IdentityRotationPreservesEntity) {
  AlignmentTask task = SmallSyntheticTask();
  auto model = MakeKgeModel(KgeModelKind::kRotatE, &task.kg1, TestConfig());
  Rng rng(11);
  model->Init(&rng);
  // Zero all phases of relation 0: h o r == h, so Score = ||h - t||.
  for (size_t k = 0; k < model->dim(); ++k) {
    (*model->mutable_relations())(0, k) = 0.0f;
  }
  float s = model->Score(1, 0, 2);
  float expected =
      EuclideanDistance(model->EntityVec(1), model->EntityVec(2));
  EXPECT_NEAR(s, expected, 1e-4f);
}

// ---------------------------------------------------------------------------
// CompGCN specifics
// ---------------------------------------------------------------------------

TEST(CompGcnTest, EncodedReprDiffersFromBase) {
  AlignmentTask task = SmallSyntheticTask();
  auto model = MakeKgeModel(KgeModelKind::kCompGcn, &task.kg1, TestConfig());
  Rng rng(12);
  model->Init(&rng);
  // With a non-zero W_nbr and neighbors, the encoding mixes neighborhood
  // information, so repr != base for connected entities.
  Vector base = model->EntityVec(0);
  Vector repr = model->EntityRepr(0);
  EXPECT_GT(EuclideanDistance(base, repr), 1e-6f);
}

TEST(CompGcnTest, AggregationRefreshTracksEmbeddingChanges) {
  AlignmentTask task = SmallSyntheticTask();
  auto model = MakeKgeModel(KgeModelKind::kCompGcn, &task.kg1, TestConfig());
  Rng rng(13);
  model->Init(&rng);
  Vector before = model->EntityRepr(0);
  // Move every entity and refresh: the aggregation must change the repr.
  Matrix* ents = model->mutable_entities();
  for (size_t e = 0; e < ents->rows(); ++e) {
    ents->RowAxpy(e, 1.0f, Vector(model->dim(), 0.5f));
  }
  model->OnEpochStart();
  Vector after = model->EntityRepr(0);
  EXPECT_GT(EuclideanDistance(before, after), 1e-4f);
}

// ---------------------------------------------------------------------------
// Entity-class model (Eq. 2 / Eq. 3)
// ---------------------------------------------------------------------------

class EntityClassModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = SmallSyntheticTask();
    model_ = MakeKgeModel(KgeModelKind::kTransE, &task_.kg1, TestConfig());
    ec_ = std::make_unique<EntityClassModel>(model_.get(), TestConfig());
    Rng rng(14);
    model_->Init(&rng);
    ec_->Init(&rng);
  }
  AlignmentTask task_;
  std::unique_ptr<KgeModel> model_;
  std::unique_ptr<EntityClassModel> ec_;
};

TEST_F(EntityClassModelTest, ScoreNonNegative) {
  for (EntityId e = 0; e < 20; ++e) {
    for (ClassId c = 0; c < task_.kg1.num_classes(); ++c) {
      EXPECT_GE(ec_->Score(e, c), 0.0f);
    }
  }
}

TEST_F(EntityClassModelTest, ClassReprHasClassDim) {
  EXPECT_EQ(ec_->ClassRepr(0).dim(), TestConfig().class_dim);
}

TEST_F(EntityClassModelTest, TrainPairIsDescentDirection) {
  Rng rng(15);
  NegativeSampler sampler(&task_.kg1);
  int checked = 0;
  for (int i = 0; i < 100 && checked < 15; ++i) {
    const TypeTriplet& tt =
        task_.kg1.type_triplets()[rng.NextUint64(
            task_.kg1.num_type_triplets())];
    EntityId neg = sampler.CorruptEntityOfClass(tt.cls, &rng);
    const float margin = 1.0f;
    float before = margin + ec_->Score(tt.entity, tt.cls) -
                   ec_->Score(neg, tt.cls);
    if (before <= 0.0f) continue;
    ec_->TrainPair(tt.entity, neg, tt.cls, 1e-3f);
    float after = margin + ec_->Score(tt.entity, tt.cls) -
                  ec_->Score(neg, tt.cls);
    EXPECT_LE(after, before + 1e-4f);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

// TrainPair's returned loss is margin_ec + Score(pos) - Score(neg) bit for
// bit, on whichever SIMD backend is active.
TEST_F(EntityClassModelTest, TrainPairLossIsTheScoreMargin) {
  Rng rng(21);
  NegativeSampler sampler(&task_.kg1);
  const float margin = TestConfig().margin_ec;
  int active = 0;
  for (int i = 0; i < 40; ++i) {
    const TypeTriplet& tt = task_.kg1.type_triplets()[rng.NextUint64(
        task_.kg1.num_type_triplets())];
    const EntityId neg = sampler.CorruptEntityOfClass(tt.cls, &rng);
    const float want =
        margin + ec_->Score(tt.entity, tt.cls) - ec_->Score(neg, tt.cls);
    const float got = ec_->TrainPair(tt.entity, neg, tt.cls, 0.01f);
    EXPECT_EQ(got, want > 0.0f ? want : 0.0f) << i;
    active += want > 0.0f;
  }
  EXPECT_GT(active, 10);
}

// TrainPair takes one SGD step on every parameter it touches: the scales
// and center of the class, the projection and both entity rows. Each
// group's step, divided by the learning rate, is the finite-difference
// gradient of the Eq. 3 hinge f_ec(pos, c) - f_ec(neg, c) + margin.
TEST_F(EntityClassModelTest, TrainPairStepMatchesFiniteDifference) {
  const TypeTriplet& tt = task_.kg1.type_triplets()[3];
  const ClassId c = tt.cls;
  const EntityId pos = tt.entity;
  const EntityId neg = pos == 0 ? 1 : 0;
  const float margin = TestConfig().margin_ec;
  const Matrix p0 = ec_->projection();
  const Vector w0 = ec_->scales().Row(c);
  const Vector b0 = ec_->centers().Row(c);
  const Vector pos0 = model_->EntityVec(pos);
  const Vector neg0 = model_->EntityVec(neg);

  // f_ec(e, c) = ||w (.) (P e) - b|| from the parameters given.
  auto f_ec = [](const Matrix& p, const Vector& w, const Vector& b,
                 const Vector& e) {
    Vector z = p.Multiply(e);
    z.Hadamard(w);
    z -= b;
    return z.Norm();
  };
  auto loss = [&](const Matrix& p, const Vector& w, const Vector& b,
                  const Vector& ep, const Vector& en) {
    return margin + f_ec(p, w, b, ep) - f_ec(p, w, b, en);
  };
  ASSERT_GT(loss(p0, w0, b0, pos0, neg0), 0.0f);

  const float lr = 1e-2f;
  ec_->TrainPair(pos, neg, c, lr);
  auto step = [lr](const Vector& before, const Vector& after) {
    return (before - after) * (1.0f / lr);
  };
  auto flat = [](const Matrix& m) {
    Vector v(m.rows() * m.cols());
    for (size_t i = 0; i < v.dim(); ++i) v[i] = m(i / m.cols(), i % m.cols());
    return v;
  };
  auto unflat = [&p0](const Vector& v) {
    Matrix m(p0.rows(), p0.cols());
    for (size_t i = 0; i < v.dim(); ++i) m(i / m.cols(), i % m.cols()) = v[i];
    return m;
  };

  EXPECT_LT(MaxRelativeError(
                step(w0, ec_->scales().Row(c)),
                NumericalGradient(
                    [&](const Vector& w) {
                      return loss(p0, w, b0, pos0, neg0);
                    },
                    w0)),
            5e-2f);
  EXPECT_LT(MaxRelativeError(
                step(b0, ec_->centers().Row(c)),
                NumericalGradient(
                    [&](const Vector& b) {
                      return loss(p0, w0, b, pos0, neg0);
                    },
                    b0)),
            5e-2f);
  EXPECT_LT(MaxRelativeError(
                step(flat(p0), flat(ec_->projection())),
                NumericalGradient(
                    [&](const Vector& p) {
                      return loss(unflat(p), w0, b0, pos0, neg0);
                    },
                    flat(p0))),
            5e-2f);
  EXPECT_LT(MaxRelativeError(
                step(pos0, model_->EntityVec(pos)),
                NumericalGradient(
                    [&](const Vector& e) {
                      return loss(p0, w0, b0, e, neg0);
                    },
                    pos0)),
            5e-2f);
  EXPECT_LT(MaxRelativeError(
                step(neg0, model_->EntityVec(neg)),
                NumericalGradient(
                    [&](const Vector& e) {
                      return loss(p0, w0, b0, pos0, e);
                    },
                    neg0)),
            5e-2f);
}

TEST_F(EntityClassModelTest, TrainingSeparatesMembersFromNonMembers) {
  KgeTrainer trainer(model_.get(), ec_.get());
  Rng rng(16);
  trainer.Train(&rng);
  NegativeSampler sampler(&task_.kg1);
  double member_sum = 0.0, other_sum = 0.0;
  int n = 0;
  for (const TypeTriplet& tt : task_.kg1.type_triplets()) {
    EntityId neg = sampler.CorruptEntityOfClass(tt.cls, &rng);
    member_sum += ec_->Score(tt.entity, tt.cls);
    other_sum += ec_->Score(neg, tt.cls);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(member_sum / n, other_sum / n);
}

// ---------------------------------------------------------------------------
// Negative sampler
// ---------------------------------------------------------------------------

TEST(NegativeSamplerTest, CorruptTailAvoidsTrueTriplets) {
  AlignmentTask task = SmallSyntheticTask();
  NegativeSampler sampler(&task.kg1);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const Triplet& t =
        task.kg1.triplets()[rng.NextUint64(task.kg1.num_triplets())];
    EntityId neg;
    sampler.CorruptTails(t, &rng, 1, &neg);
    EXPECT_NE(neg, t.tail);
    EXPECT_LT(neg, task.kg1.num_entities());
  }
}

// The single-draw sampler that CorruptTails replaced, one HasTriplet search
// per candidate: CorruptTails must draw exactly what it drew.
EntityId ReferenceCorruptTail(const KnowledgeGraph& kg, const Triplet& triplet,
                              Rng* rng) {
  const size_t n = kg.num_entities();
  for (int attempt = 0; attempt < 16; ++attempt) {
    EntityId cand = static_cast<EntityId>(rng->NextUint64(n));
    if (cand == triplet.tail) continue;
    if (!kg.HasTriplet(triplet.head, triplet.relation, cand)) return cand;
  }
  EntityId cand = static_cast<EntityId>(rng->NextUint64(n));
  if (cand == triplet.tail) cand = static_cast<EntityId>((cand + 1) % n);
  return cand;
}

// Draws k tails per triplet both ways from two copies of one RNG and
// returns how many draws fell back to a true triplet.
size_t ExpectCorruptTailsMatchesReference(const KnowledgeGraph& kg,
                                          uint64_t seed) {
  NegativeSampler sampler(&kg);
  Rng pick(seed), rng(seed + 1), ref_rng(seed + 1);
  size_t fallbacks = 0;
  for (size_t k : {0u, 1u, 4u, 7u}) {
    for (int i = 0; i < 200; ++i) {
      const Triplet& t = kg.triplets()[pick.NextUint64(kg.num_triplets())];
      std::vector<EntityId> got(k);
      sampler.CorruptTails(t, &rng, k, got.data());
      for (size_t j = 0; j < k; ++j) {
        EXPECT_EQ(got[j], ReferenceCorruptTail(kg, t, &ref_rng))
            << "k=" << k << " i=" << i << " j=" << j;
        EXPECT_NE(got[j], t.tail);
        fallbacks += kg.HasTriplet(t.head, t.relation, got[j]);
      }
    }
  }
  // Both left the RNG in the same state.
  EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64());
  return fallbacks;
}

TEST(NegativeSamplerTest, CorruptTailsMatchesOneSearchPerDraw) {
  AlignmentTask task = SmallSyntheticTask();
  EXPECT_EQ(ExpectCorruptTailsMatchesReference(task.kg1, 31), 0u);
  EXPECT_EQ(ExpectCorruptTailsMatchesReference(task.kg2, 32), 0u);

  // Three entities under two relations, every (head, tail) pair linked by
  // both: no corrupted tail exists, so every draw takes the fallback.
  KnowledgeGraph dense;
  for (const char* e : {"a", "b", "c"}) dense.AddEntity(e);
  const RelationId r0 = dense.AddRelation("r0");
  const RelationId r1 = dense.AddRelation("r1");
  for (EntityId h = 0; h < 3; ++h) {
    for (EntityId t = 0; t < 3; ++t) {
      dense.AddTriplet(h, r0, t);
      dense.AddTriplet(h, r1, t);
    }
  }
  ASSERT_TRUE(dense.Finalize().ok());
  EXPECT_GT(ExpectCorruptTailsMatchesReference(dense, 33), 0u);
}

TEST(NegativeSamplerTest, CorruptEntityOfClassAvoidsMembersMostly) {
  AlignmentTask task = SmallSyntheticTask();
  NegativeSampler sampler(&task.kg1);
  Rng rng(18);
  int member_hits = 0;
  for (int i = 0; i < 200; ++i) {
    ClassId c = static_cast<ClassId>(rng.NextUint64(task.kg1.num_classes()));
    EntityId neg = sampler.CorruptEntityOfClass(c, &rng);
    if (task.kg1.HasType(neg, c)) ++member_hits;
  }
  // Rejection sampling can only fail on near-universal classes.
  EXPECT_LT(member_hits, 10);
}

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

TEST(KgeTrainerTest, LossDecreasesOverEpochs) {
  AlignmentTask task = SmallSyntheticTask();
  auto model = MakeKgeModel(KgeModelKind::kTransE, &task.kg1, TestConfig());
  Rng rng(19);
  model->Init(&rng);
  KgeTrainer trainer(model.get(), nullptr);
  KgeTrainStats stats;
  trainer.TrainEpoch(&rng, &stats);
  double first = stats.final_er_loss;
  for (int e = 0; e < 15; ++e) trainer.TrainEpoch(&rng, &stats);
  EXPECT_LT(stats.final_er_loss, first);
}

TEST(KgeTrainerTest, TrainReportsEpochCount) {
  AlignmentTask task = SmallSyntheticTask();
  KgeConfig cfg = TestConfig();
  cfg.epochs = 4;
  auto model = MakeKgeModel(KgeModelKind::kTransE, &task.kg1, cfg);
  Rng rng(20);
  model->Init(&rng);
  KgeTrainer trainer(model.get(), nullptr);
  KgeTrainStats stats = trainer.Train(&rng);
  EXPECT_EQ(stats.epochs, 4);
}

// Two KGs' trainers (with entity-class models) run side by side end where
// the same trainers run one after the other, bit for bit, per model kind.
TEST(KgeTrainerTest, SideBySideMatchesSequential) {
  AlignmentTask task = SmallSyntheticTask();
  for (const char* name : {"transe", "rotate", "compgcn"}) {
    struct Side {
      std::unique_ptr<KgeModel> model;
      std::unique_ptr<EntityClassModel> ec;
      std::unique_ptr<KgeTrainer> trainer;
      Rng rng{0};
    };
    auto make = [&](const KnowledgeGraph* kg, uint64_t seed) {
      Side side;
      side.model =
          MakeKgeModel(ParseKgeModelKind(name).value(), kg, TestConfig());
      side.ec = std::make_unique<EntityClassModel>(side.model.get(),
                                                   TestConfig());
      Rng init(seed);
      side.model->Init(&init);
      side.ec->Init(&init);
      side.trainer =
          std::make_unique<KgeTrainer>(side.model.get(), side.ec.get());
      side.rng = Rng(seed + 1);
      return side;
    };
    Side seq1 = make(&task.kg1, 31), seq2 = make(&task.kg2, 41);
    Side par1 = make(&task.kg1, 31), par2 = make(&task.kg2, 41);
    KgeTrainStats want1, want2;
    for (int e = 0; e < 3; ++e) {
      seq1.trainer->TrainEpoch(&seq1.rng, &want1);
      seq2.trainer->TrainEpoch(&seq2.rng, &want2);
    }
    const auto got = TrainSideBySide(par1.trainer.get(), &par1.rng,
                                     par2.trainer.get(), &par2.rng, 3);
    EXPECT_EQ(got[0].epochs, 3) << name;
    EXPECT_EQ(got[1].epochs, 3) << name;
    EXPECT_EQ(got[0].final_er_loss, want1.final_er_loss) << name;
    EXPECT_EQ(got[1].final_ec_loss, want2.final_ec_loss) << name;
    for (auto [seq, par] : {std::pair{&seq1, &par1}, std::pair{&seq2, &par2}}) {
      EXPECT_TRUE(seq->model->entities() == par->model->entities()) << name;
      EXPECT_TRUE(seq->model->relations() == par->model->relations()) << name;
      EXPECT_TRUE(seq->ec->projection() == par->ec->projection()) << name;
      EXPECT_TRUE(seq->ec->scales() == par->ec->scales()) << name;
      EXPECT_TRUE(seq->ec->centers() == par->ec->centers()) << name;
      EXPECT_EQ(seq->rng.NextUint64(), par->rng.NextUint64()) << name;
    }
  }
}

TEST(KgeFactoryTest, KnownNamesConstruct) {
  AlignmentTask task = SmallSyntheticTask();
  for (const char* name : {"transe", "rotate", "compgcn"}) {
    auto kind = ParseKgeModelKind(name);
    ASSERT_TRUE(kind.ok()) << kind.status();
    auto model = MakeKgeModel(*kind, &task.kg1, TestConfig());
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
  }
}

TEST(KgeFactoryTest, UnknownNameReturnsInvalidArgument) {
  auto kind = ParseKgeModelKind("bogus");
  ASSERT_FALSE(kind.ok());
  EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgeFactoryTest, ParseKgeModelKindRoundTrips) {
  for (KgeModelKind kind : {KgeModelKind::kTransE, KgeModelKind::kRotatE,
                            KgeModelKind::kCompGcn}) {
    auto parsed = ParseKgeModelKind(KgeModelKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseKgeModelKind("TransE").ok());  // case-sensitive
  EXPECT_FALSE(ParseKgeModelKind("").ok());
}

}  // namespace
}  // namespace daakg

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "active/pool.h"
#include "common/thread_pool.h"
#include "embedding/trainer.h"
#include "infer/alignment_graph.h"
#include "infer/inference_power.h"
#include "kg/synthetic.h"
#include "tensor/simd/simd.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

using testing_util::MirrorTask;

// The mirror task's pool: all 6x6 entity pairs, all relation pairs and all
// class pairs.
std::vector<ElementPair> MirrorPool() {
  std::vector<ElementPair> pool;
  for (uint32_t e1 = 0; e1 < 6; ++e1) {
    for (uint32_t e2 = 0; e2 < 6; ++e2) {
      pool.push_back(ElementPair{ElementKind::kEntity, e1, e2});
    }
  }
  for (uint32_t r1 = 0; r1 < 2; ++r1) {
    for (uint32_t r2 = 0; r2 < 2; ++r2) {
      pool.push_back(ElementPair{ElementKind::kRelation, r1, r2});
    }
  }
  for (uint32_t c1 = 0; c1 < 2; ++c1) {
    for (uint32_t c2 = 0; c2 < 2; ++c2) {
      pool.push_back(ElementPair{ElementKind::kClass, c1, c2});
    }
  }
  return pool;
}

// Fixture: the handcrafted mirror task with a trained joint model and a
// pool containing the identity pairs (plus all schema pairs).
class InferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = MirrorTask();
    KgeConfig kge;
    kge.dim = 8;
    kge.class_dim = 4;
    kge.epochs = 30;
    model1_ = MakeKgeModel(KgeModelKind::kTransE, &task_.kg1, kge);
    model2_ = MakeKgeModel(KgeModelKind::kTransE, &task_.kg2, kge);
    Rng rng(31);
    model1_->Init(&rng);
    model2_->Init(&rng);
    JointAlignConfig cfg;
    joint_ = std::make_unique<JointAlignmentModel>(
        model1_.get(), model2_.get(), nullptr, nullptr, cfg);
    joint_->Init(&rng);
    KgeTrainer t1(model1_.get(), nullptr);
    KgeTrainer t2(model2_.get(), nullptr);
    Rng r1(32), r2(33);
    t1.Train(&r1);
    t2.Train(&r2);

    pool_ = MirrorPool();
    joint_->RefreshCaches();
    graph_ = std::make_unique<AlignmentGraph>(&task_, pool_);
  }

  InferenceConfig EngineConfig() {
    InferenceConfig cfg;
    cfg.power_floor = 0.01;  // keep everything; tests filter themselves
    cfg.max_hops = 3;
    // Tests reason about raw costs (Eq. 15/17); disable the bench-oriented
    // auto-calibration.
    cfg.auto_calibrate_costs = false;
    return cfg;
  }

  AlignmentTask task_;
  std::unique_ptr<KgeModel> model1_, model2_;
  std::unique_ptr<JointAlignmentModel> joint_;
  std::vector<ElementPair> pool_;
  std::unique_ptr<AlignmentGraph> graph_;
};

TEST_F(InferTest, GraphIndexesPool) {
  EXPECT_EQ(graph_->num_nodes(), pool_.size());
  for (uint32_t i = 0; i < pool_.size(); ++i) {
    EXPECT_EQ(graph_->IndexOf(pool_[i]), i);
  }
  EXPECT_EQ(graph_->IndexOf(ElementPair{ElementKind::kEntity, 99, 99}),
            kInvalidId);
}

TEST_F(InferTest, ExpectedRelationalEdgeExists) {
  // (p0_a, p0_b) --(livesIn, livesIn)--> (c0_a, c0_b): p0 ids are 0, c0 is 3.
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 0});
  uint32_t dst = graph_->IndexOf(ElementPair{ElementKind::kEntity, 3, 3});
  uint32_t rel = graph_->IndexOf(ElementPair{ElementKind::kRelation, 0, 0});
  bool found = false;
  for (const auto& e : graph_->Out(src)) {
    if (e.target == dst && e.rel_pair == rel) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(InferTest, ReverseEdgeAlsoMaterialized) {
  // The reverse direction (c0, c0) -> (p0, p0) must exist with the same
  // base relation-pair label.
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 3, 3});
  uint32_t dst = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 0});
  bool found = false;
  for (const auto& e : graph_->Out(src)) {
    if (e.target == dst) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(InferTest, TypeEdgesPointToClassPairs) {
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 0});
  uint32_t person_pair =
      graph_->IndexOf(ElementPair{ElementKind::kClass, 0, 0});
  bool found = false;
  for (const auto& e : graph_->Out(src)) {
    if (e.rel_pair == AlignmentGraph::kTypeLabel && e.target == person_pair) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(InferTest, MismatchedDirectionEdgesAreNotCreated) {
  // An entity pair mixing a forward edge on one side with a reverse edge on
  // the other must not be linked: check (p0, c0) has no edge to (c0, p0)
  // labeled by (livesIn, livesIn).
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 3});
  uint32_t dst = graph_->IndexOf(ElementPair{ElementKind::kEntity, 3, 0});
  for (const auto& e : graph_->Out(src)) {
    EXPECT_NE(e.target, dst);
  }
}

TEST_F(InferTest, EdgeCostsNonNegativeAndFinite) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  for (uint32_t q = 0; q < graph_->num_nodes(); ++q) {
    const auto& out = graph_->Out(q);
    for (size_t k = 0; k < out.size(); ++k) {
      float c = engine.EdgeCost(q, k);
      if (out[k].rel_pair == AlignmentGraph::kTypeLabel) {
        EXPECT_TRUE(std::isinf(c));
      } else {
        EXPECT_GE(c, 0.0f);
        EXPECT_TRUE(std::isfinite(c));
      }
    }
  }
}

TEST_F(InferTest, TransEEdgeCostMatchesManualFormula) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  // Edge cost = w_rel (1 - S(r1, r2)) + w_res (d1 + d2) + w_alt (extra
  // parallel edges); for TransE the d terms are the score residuals.
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 0});
  const auto& out = graph_->Out(src);
  for (size_t k = 0; k < out.size(); ++k) {
    if (out[k].rel_pair == AlignmentGraph::kTypeLabel) continue;
    const ElementPair& rel = graph_->pool()[out[k].rel_pair];
    const ElementPair& dst = graph_->pool()[out[k].target];
    RelationId r1 = rel.first;
    if (!task_.kg1.HasTriplet(0, r1, dst.first)) {
      r1 = task_.kg1.ReverseOf(r1);
    }
    RelationId r2 = rel.second;
    if (!task_.kg2.HasTriplet(0, r2, dst.second)) {
      r2 = task_.kg2.ReverseOf(r2);
    }
    auto parallel = [](const KnowledgeGraph& kg, EntityId h, RelationId r) {
      size_t n = 0;
      for (const auto& nb : kg.Neighbors(h)) n += (nb.relation == r);
      return n;
    };
    const float alternatives = static_cast<float>(
        parallel(task_.kg1, 0, r1) - 1 + parallel(task_.kg2, 0, r2) - 1);
    float expected =
        kRelDiffWeight *
            (1.0f - joint_->relation_sim()(rel.first, rel.second)) +
        kResidualWeight * (model1_->Score(0, r1, dst.first) +
                           model2_->Score(0, r2, dst.second)) +
        kAltPenalty * alternatives;
    EXPECT_NEAR(engine.EdgeCost(src, k), expected, 1e-3f);
  }
}

TEST_F(InferTest, PowerFromEntityReachesNeighborsWithinHops) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 0});
  PowerRow row = engine.PowerFrom(src);
  // Powers must be in (0, 1] and must not include the source itself.
  for (const auto& [node, power] : row) {
    EXPECT_NE(node, src);
    EXPECT_GT(power, 0.0f);
    EXPECT_LE(power, 1.0f);
  }
}

TEST_F(InferTest, MultiHopPowerIsNotGreaterThanOneHop) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  // p0 -> c0 is one hop; p0 -> p1 -> ... : any two-hop target's power must
  // be <= the max single-edge power (costs add up).
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 0});
  PowerRow row = engine.PowerFrom(src);
  float best_onehop = 0.0f;
  const auto& out = graph_->Out(src);
  for (size_t k = 0; k < out.size(); ++k) {
    if (out[k].rel_pair == AlignmentGraph::kTypeLabel) continue;
    best_onehop =
        std::max(best_onehop, 1.0f / (1.0f + engine.EdgeCost(src, k)));
  }
  for (const auto& [node, power] : row) {
    if (graph_->pool()[node].kind == ElementKind::kEntity) {
      EXPECT_LE(power, best_onehop + 1e-5f);
    }
  }
}

TEST_F(InferTest, ClassPairSourceHasNoOutgoingPower) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  uint32_t cls = graph_->IndexOf(ElementPair{ElementKind::kClass, 0, 0});
  EXPECT_TRUE(engine.PowerFrom(cls).empty());
}

TEST_F(InferTest, GradientPowerZeroForNonMembers) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  // p0 (class Person=0) has no membership in City (=1) on either side.
  float p = engine.PowerEntityToClass(
      ElementPair{ElementKind::kEntity, 0, 0},
      ElementPair{ElementKind::kClass, 1, 1});
  EXPECT_FLOAT_EQ(p, 0.0f);
}

TEST_F(InferTest, GradientPowersBounded) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  float pc = engine.PowerEntityToClass(
      ElementPair{ElementKind::kEntity, 0, 0},
      ElementPair{ElementKind::kClass, 0, 0});
  EXPECT_GE(pc, 0.0f);
  EXPECT_LE(pc, 1.0f);
  float pr = engine.PowerEntityToRelation(
      ElementPair{ElementKind::kEntity, 0, 0},
      ElementPair{ElementKind::kRelation, 0, 0},
      ElementPair{ElementKind::kEntity, 3, 3});
  EXPECT_GE(pr, 0.0f);
  EXPECT_LE(pr, 1.0f);
}

// The one-hop CSR holds, per node and in edge order, exactly the edges with
// positive power: 1/(1+cost) along relational edges, Eq. (21) along type
// edges.
TEST_F(InferTest, OneHopPowersMatchEdgeCosts) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  const InferenceEngine::OneHopCsr onehop = engine.OneHopPowers();
  ASSERT_EQ(onehop.offsets.size(), graph_->num_nodes() + 1);
  ASSERT_EQ(onehop.target.size(), onehop.offsets.back());
  ASSERT_EQ(onehop.label.size(), onehop.offsets.back());
  ASSERT_EQ(onehop.power.size(), onehop.offsets.back());
  size_t relational = 0;
  for (uint32_t q = 0; q < graph_->num_nodes(); ++q) {
    const auto out = graph_->Out(q);
    uint32_t e = onehop.offsets[q];
    for (size_t k = 0; k < out.size(); ++k) {
      const bool type = out[k].rel_pair == AlignmentGraph::kTypeLabel;
      const float power =
          type ? engine.PowerEntityToClass(pool_[q], pool_[out[k].target])
               : 1.0f / (1.0f + engine.EdgeCost(q, k));
      if (!(power > 0.0f)) continue;
      ASSERT_LT(e, onehop.offsets[q + 1]) << "node " << q;
      EXPECT_EQ(onehop.target[e], out[k].target);
      EXPECT_EQ(onehop.label[e], out[k].rel_pair);
      EXPECT_EQ(onehop.power[e], power);
      relational += !type;
      ++e;
    }
    EXPECT_EQ(e, onehop.offsets[q + 1]) << "node " << q;
  }
  EXPECT_GT(relational, 0u);
}

TEST_F(InferTest, RelationPairSourceUsesLikelyMatches) {
  InferenceConfig cfg = EngineConfig();
  cfg.likely_match_prob = 0.0;  // treat every source pair as likely
  InferenceEngine engine(graph_.get(), joint_.get(), cfg);
  engine.PrecomputeEdgeCosts();
  uint32_t rel = graph_->IndexOf(ElementPair{ElementKind::kRelation, 0, 0});
  PowerRow row = engine.PowerFrom(rel);
  EXPECT_FALSE(row.empty());
  for (const auto& [node, power] : row) {
    EXPECT_EQ(graph_->pool()[node].kind, ElementKind::kEntity);
    EXPECT_GT(power, 0.0f);
    EXPECT_LE(power, 1.0f);
  }
}

TEST_F(InferTest, AutoCalibrationLiftsGoodEdgesAboveKappa) {
  InferenceConfig cfg = EngineConfig();
  cfg.auto_calibrate_costs = true;
  cfg.calibration_percentile = 0.2;
  InferenceEngine engine(graph_.get(), joint_.get(), cfg);
  engine.PrecomputeEdgeCosts();
  size_t finite = 0, strong = 0;
  for (uint32_t q = 0; q < graph_->num_nodes(); ++q) {
    for (size_t k = 0; k < graph_->Out(q).size(); ++k) {
      const float c = engine.EdgeCost(q, k);
      if (!std::isfinite(c)) continue;
      ++finite;
      if (1.0f / (1.0f + c) >= 0.85f) ++strong;
    }
  }
  ASSERT_GT(finite, 0u);
  // The 20th percentile is calibrated to power ~0.9, so at least ~15% of
  // edges must clear 0.85.
  EXPECT_GE(static_cast<double>(strong) / static_cast<double>(finite), 0.15);
}

TEST_F(InferTest, HigherPowerFloorPrunesMore) {
  InferenceConfig loose = EngineConfig();
  InferenceConfig strict = EngineConfig();
  strict.power_floor = 0.8;
  InferenceEngine e1(graph_.get(), joint_.get(), loose);
  e1.PrecomputeEdgeCosts();
  InferenceEngine e2(graph_.get(), joint_.get(), strict);
  e2.PrecomputeEdgeCosts();
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 0, 0});
  EXPECT_GE(e1.PowerFrom(src).size(), e2.PowerFrom(src).size());
}

// Regression: the alternatives term used to be computed as
// (count1 - 1) + (count2 - 1) in size_t, so a zero count wrapped to ~1.8e19
// and poisoned the edge cost. Each side must clamp at zero independently.
TEST(AlternativeEntitySlackTest, ClampsEachSideAtZero) {
  EXPECT_FLOAT_EQ(AlternativeEntitySlack(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(AlternativeEntitySlack(1, 1), 0.0f);
  EXPECT_FLOAT_EQ(AlternativeEntitySlack(0, 3), 2.0f);
  EXPECT_FLOAT_EQ(AlternativeEntitySlack(3, 0), 2.0f);
  EXPECT_FLOAT_EQ(AlternativeEntitySlack(4, 2), 4.0f);
  EXPECT_FLOAT_EQ(AlternativeEntitySlack(0, 1), 0.0f);
}

TEST_F(InferTest, SlackFromGenuineZeroParallelEdgeCount) {
  // In the mirror task, city c0 (entity 3) is only ever the *tail* of
  // livesIn; its outgoing neighbor list holds the reverse relation, so the
  // count of base livesIn at head c0 is genuinely zero.
  const RelationId lives_in = 0;
  size_t count = 0;
  for (const auto& nb : task_.kg1.Neighbors(3)) {
    count += (nb.relation == lives_in);
  }
  ASSERT_EQ(count, 0u);
  EXPECT_FLOAT_EQ(AlternativeEntitySlack(count, 1), 0.0f);
  // The reverse relation, by contrast, is present.
  size_t rev_count = 0;
  for (const auto& nb : task_.kg1.Neighbors(3)) {
    rev_count += (nb.relation == task_.kg1.ReverseOf(lives_in));
  }
  EXPECT_GE(rev_count, 1u);
}

TEST_F(InferTest, ReverseResolvedEdgeCostsStayModest) {
  // Edges out of (c0, c0) resolve their label through the reverse relation;
  // an unsigned wrap in the alternatives term would blow these costs up to
  // ~1.8e19 * kAltPenalty.
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  uint32_t src = graph_->IndexOf(ElementPair{ElementKind::kEntity, 3, 3});
  ASSERT_NE(src, kInvalidId);
  const auto& out = graph_->Out(src);
  size_t relational = 0;
  for (size_t k = 0; k < out.size(); ++k) {
    if (out[k].rel_pair == AlignmentGraph::kTypeLabel) continue;
    ++relational;
    const float c = engine.EdgeCost(src, k);
    EXPECT_TRUE(std::isfinite(c));
    EXPECT_LT(c, 1e4f);
  }
  EXPECT_GT(relational, 0u);
}

// Regression for the BoundFor data race: PowerFrom runs under ParallelFor
// in selection, so the bound caches must be fully populated by
// PrecomputeEdgeCosts and never written afterwards (BoundFor CHECK-fails on
// a miss). Querying every node from many threads at once must succeed.
TEST_F(InferTest, PowerFromEveryNodeConcurrently) {
  InferenceEngine engine(graph_.get(), joint_.get(), EngineConfig());
  engine.PrecomputeEdgeCosts();
  const size_t n = graph_->num_nodes();
  std::vector<size_t> entry_counts(n);
  GlobalThreadPool().ParallelFor(n, [&](size_t q) {
    entry_counts[q] = engine.PowerFrom(static_cast<uint32_t>(q)).size();
  });
  // Sanity: at least one node produces powers, and repeated concurrent
  // queries are deterministic.
  size_t total = 0;
  for (size_t c : entry_counts) total += c;
  EXPECT_GT(total, 0u);
  std::vector<size_t> second(n);
  GlobalThreadPool().ParallelFor(n, [&](size_t q) {
    second[q] = engine.PowerFrom(static_cast<uint32_t>(q)).size();
  });
  EXPECT_EQ(entry_counts, second);
}

// Engines over equal pools of one unchanged model share one edge-cost
// table, with the powers of an engine that built its own; anything the
// table depends on builds a new one.
TEST_F(InferTest, EqualPoolSharesEdgeCosts) {
  obs::Counter* builds =
      obs::GlobalMetrics().GetCounter("daakg.infer.edge_cost_builds");
  const uint64_t before = builds->Value();
  InferenceEngine first(graph_.get(), joint_.get(), EngineConfig());
  first.PrecomputeEdgeCosts();
  const AlignmentGraph twin_graph(&task_, pool_);
  InferenceEngine twin(&twin_graph, joint_.get(), EngineConfig());
  twin.PrecomputeEdgeCosts();
  EXPECT_EQ(builds->Value() - before, 1u);
  EXPECT_EQ(twin.edge_costs(), first.edge_costs());
  for (uint32_t node = 0; node < graph_->num_nodes(); ++node) {
    for (size_t k = 0; k < graph_->Out(node).size(); ++k) {
      const float a = first.EdgeCost(node, k);
      const float b = twin.EdgeCost(node, k);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << node << " " << k;
    }
    EXPECT_EQ(twin.PowerFrom(node), first.PowerFrom(node)) << node;
  }
  const InferenceEngine::OneHopCsr want = first.OneHopPowers();
  const InferenceEngine::OneHopCsr got = twin.OneHopPowers();
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.power, want.power);

  // Builds of an engine on `graph` with `cfg` while the slot holds the
  // table of the first engine's pool and config.
  auto builds_for = [&](const AlignmentGraph& graph,
                        const InferenceConfig& cfg) {
    InferenceEngine base(graph_.get(), joint_.get(), EngineConfig());
    base.PrecomputeEdgeCosts();
    const uint64_t at = builds->Value();
    InferenceEngine engine(&graph, joint_.get(), cfg);
    engine.PrecomputeEdgeCosts();
    return builds->Value() - at;
  };
  EXPECT_EQ(builds_for(twin_graph, EngineConfig()), 0u);
  InferenceConfig floor = EngineConfig();
  floor.power_floor = 0.2;
  EXPECT_EQ(builds_for(*graph_, floor), 1u);
  InferenceConfig seed = EngineConfig();
  seed.seed += 1;
  EXPECT_EQ(builds_for(*graph_, seed), 1u);
  PoolConfig top2;
  top2.top_n = 2;
  const std::vector<ElementPair> cut =
      PoolGenerator(&task_, joint_.get(), top2).Generate();
  ASSERT_NE(cut, pool_);
  const AlignmentGraph cut_graph(&task_, cut);
  EXPECT_EQ(builds_for(cut_graph, EngineConfig()), 1u);

  // A parameter change: the refresh releases the slot.
  EXPECT_EQ(builds_for(twin_graph, EngineConfig()), 0u);
  model1_->mutable_entities()->RowData(0)[0] += 0.5f;
  joint_->RefreshCaches();
  const uint64_t at = builds->Value();
  InferenceEngine moved(graph_.get(), joint_.get(), EngineConfig());
  moved.PrecomputeEdgeCosts();
  EXPECT_EQ(builds->Value() - at, 1u);
  EXPECT_NE(moved.edge_costs(), first.edge_costs());
}

// Pins the edge costs and the relation-pair power rows of one planning
// round on a synthetic task, for every KGE geometry. Edge bounds are
// estimated in parallel, one RNG stream per (side, triplet), so the pins
// must hold at any DAAKG_THREADS: a ctest copy runs this test on a
// one-thread pool. The pins hold on every SIMD backend.
TEST_F(InferTest, EdgeCostsDoNotDependOnThreadCount) {
  struct Case {
    KgeModelKind kind;
    uint64_t hash;
  };
  const Case cases[] = {
      {KgeModelKind::kTransE, 0x5D3F3C09BC6D484FULL},
      {KgeModelKind::kRotatE, 0x6915C64417D4A35FULL},
      {KgeModelKind::kCompGcn, 0x00E1B579053B4A8DULL},
  };
  const AlignmentTask task = testing_util::SmallSyntheticTask();
  for (const Case& c : cases) {
    SCOPED_TRACE(KgeModelKindToString(c.kind));
    KgeConfig kge;
    kge.dim = 16;
    kge.epochs = 5;
    auto model1 = MakeKgeModel(c.kind, &task.kg1, kge);
    auto model2 = MakeKgeModel(c.kind, &task.kg2, kge);
    Rng rng(71);
    model1->Init(&rng);
    model2->Init(&rng);
    JointAlignmentModel joint(model1.get(), model2.get(), nullptr, nullptr,
                              JointAlignConfig{});
    joint.Init(&rng);
    KgeTrainer t1(model1.get(), nullptr);
    KgeTrainer t2(model2.get(), nullptr);
    Rng r1(72), r2(73);
    t1.Train(&r1);
    t2.Train(&r2);
    joint.RefreshCaches();

    PoolConfig pool_cfg;
    pool_cfg.top_n = 8;
    const std::vector<ElementPair> pool =
        PoolGenerator(&task, &joint, pool_cfg).Generate();
    const AlignmentGraph graph(&task, pool);
    InferenceEngine engine(&graph, &joint, InferenceConfig{});
    engine.PrecomputeEdgeCosts();

    uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](uint64_t word) {
      for (int i = 0; i < 8; ++i) {
        h = (h ^ ((word >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
      }
    };
    auto mix_float = [&mix](float v) {
      uint32_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    };
    mix(pool.size());
    mix(graph.num_edges());
    size_t finite = 0;
    for (uint32_t node = 0; node < graph.num_nodes(); ++node) {
      for (size_t k = 0; k < graph.Out(node).size(); ++k) {
        const float cost = engine.EdgeCost(node, k);
        finite += std::isfinite(cost);
        mix_float(cost);
      }
      // Relation-pair sources read the bounds again (Eq. 20).
      if (pool[node].kind != ElementKind::kRelation) continue;
      for (const auto& [target, power] : engine.PowerFrom(node)) {
        mix(target);
        mix_float(power);
      }
    }
    EXPECT_GT(finite, 0u);
    EXPECT_EQ(h, c.hash) << std::hex << "0x" << h << " on "
                         << simd::ActiveOps().name;
  }
}

// ---------------------------------------------------------------------------
// Alignment graph against the hash-based reference join
// ---------------------------------------------------------------------------

// The graph as the first, hash-based join built it: every pair of the two
// entities' outgoing edges probes a pair index for its relation pair and its
// target pair.
struct ReferenceGraph {
  std::unordered_map<ElementPair, uint32_t, ElementPairHash> index;
  std::vector<std::vector<AlignmentGraph::Edge>> out;
  std::unordered_map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>>
      rel_pair_edges;
  size_t num_edges = 0;
};

ReferenceGraph ReferenceJoin(const AlignmentTask& task,
                             const std::vector<ElementPair>& pool) {
  ReferenceGraph ref;
  for (uint32_t i = 0; i < pool.size(); ++i) ref.index.emplace(pool[i], i);
  ref.out.assign(pool.size(), {});
  const KnowledgeGraph& kg1 = task.kg1;
  const KnowledgeGraph& kg2 = task.kg2;
  auto base1 = [&kg1](RelationId r) {
    return kg1.IsReverseRelation(r) ? kg1.ReverseOf(r) : r;
  };
  auto base2 = [&kg2](RelationId r) {
    return kg2.IsReverseRelation(r) ? kg2.ReverseOf(r) : r;
  };
  for (uint32_t node = 0; node < pool.size(); ++node) {
    const ElementPair& pair = pool[node];
    if (pair.kind != ElementKind::kEntity) continue;
    for (const auto& n1 : kg1.Neighbors(pair.first)) {
      const bool rev1 = kg1.IsReverseRelation(n1.relation);
      for (const auto& n2 : kg2.Neighbors(pair.second)) {
        if (kg2.IsReverseRelation(n2.relation) != rev1) continue;
        auto rel_it = ref.index.find(ElementPair{
            ElementKind::kRelation, base1(n1.relation), base2(n2.relation)});
        if (rel_it == ref.index.end()) continue;
        auto tgt_it = ref.index.find(
            ElementPair{ElementKind::kEntity, n1.tail, n2.tail});
        if (tgt_it == ref.index.end()) continue;
        ref.out[node].push_back(
            AlignmentGraph::Edge{tgt_it->second, rel_it->second});
        ref.rel_pair_edges[rel_it->second].emplace_back(node, tgt_it->second);
        ++ref.num_edges;
      }
    }
    for (ClassId c1 : kg1.ClassesOf(pair.first)) {
      for (ClassId c2 : kg2.ClassesOf(pair.second)) {
        auto it = ref.index.find(ElementPair{ElementKind::kClass, c1, c2});
        if (it == ref.index.end()) continue;
        ref.out[node].push_back(
            AlignmentGraph::Edge{it->second, AlignmentGraph::kTypeLabel});
        ++ref.num_edges;
      }
    }
  }
  return ref;
}

// Asserts the graph over `pool` equals the reference join edge for edge, in
// order, and returns its edge count.
size_t ExpectMatchesReferenceJoin(const AlignmentTask& task,
                                  const std::vector<ElementPair>& pool) {
  const AlignmentGraph graph(&task, pool);
  const ReferenceGraph ref = ReferenceJoin(task, pool);
  EXPECT_EQ(graph.num_edges(), ref.num_edges) << task.name;
  for (uint32_t node = 0; node < pool.size(); ++node) {
    EXPECT_EQ(graph.IndexOf(pool[node]), ref.index.at(pool[node]))
        << task.name << " node " << node;
    const auto out = graph.Out(node);
    const auto& want = ref.out[node];
    EXPECT_EQ(out.size(), want.size()) << task.name << " node " << node;
    for (size_t k = 0; k < std::min(out.size(), want.size()); ++k) {
      EXPECT_EQ(out[k].target, want[k].target)
          << task.name << " node " << node << " edge " << k;
      EXPECT_EQ(out[k].rel_pair, want[k].rel_pair)
          << task.name << " node " << node << " edge " << k;
    }
    using NodePairs = std::vector<std::pair<uint32_t, uint32_t>>;
    const auto labeled = graph.EdgesOfRelationPair(node);
    const auto it = ref.rel_pair_edges.find(node);
    const NodePairs want_labeled =
        it == ref.rel_pair_edges.end() ? NodePairs{} : it->second;
    EXPECT_EQ(NodePairs(labeled.begin(), labeled.end()), want_labeled)
        << task.name << " label node " << node;
  }
  return graph.num_edges();
}

// A pool shaped like the generator's, without a trained model: each KG1
// entity pairs with its gold partner, the gold partners of its first
// neighbours (structurally close, often wrong) and two random KG2 entities,
// repeats included. All schema pairs, a few reverse relation pairs (which
// label no edge), then a shuffle so schema and entity nodes interleave.
std::vector<ElementPair> NearGoldPool(const AlignmentTask& task, Rng* rng) {
  const KnowledgeGraph& kg1 = task.kg1;
  const KnowledgeGraph& kg2 = task.kg2;
  std::vector<EntityId> gold(kg1.num_entities(), kInvalidId);
  for (const auto& [e1, e2] : task.gold_entities) gold[e1] = e2;
  std::vector<ElementPair> pool;
  auto add_entity_pair = [&pool](EntityId e1, EntityId e2) {
    if (e2 != kInvalidId) pool.push_back({ElementKind::kEntity, e1, e2});
  };
  for (EntityId e1 = 0; e1 < kg1.num_entities(); ++e1) {
    add_entity_pair(e1, gold[e1]);
    const auto& nbrs = kg1.Neighbors(e1);
    for (size_t k = 0; k < std::min<size_t>(3, nbrs.size()); ++k) {
      add_entity_pair(e1, gold[nbrs[k].tail]);
    }
    for (int k = 0; k < 2; ++k) {
      add_entity_pair(e1, static_cast<EntityId>(
                              rng->NextUint64(kg2.num_entities())));
    }
  }
  for (RelationId r1 = 0; r1 < kg1.num_base_relations(); ++r1) {
    for (RelationId r2 = 0; r2 < kg2.num_base_relations(); ++r2) {
      pool.push_back({ElementKind::kRelation, r1, r2});
    }
  }
  pool.push_back({ElementKind::kRelation, kg1.ReverseOf(0), kg2.ReverseOf(0)});
  pool.push_back({ElementKind::kRelation, 0, kg2.ReverseOf(0)});
  for (ClassId c1 = 0; c1 < kg1.num_classes(); ++c1) {
    for (ClassId c2 = 0; c2 < kg2.num_classes(); ++c2) {
      pool.push_back({ElementKind::kClass, c1, c2});
    }
  }
  rng->Shuffle(&pool);
  return pool;
}

// A hand-built task with duplicate and parallel triplets (one (t1, t2) pair
// then yields several (pos1, pos2) edges), self-loops and an entity with no
// neighbours on each side. Entity i of KG1 corresponds to entity i of KG2.
AlignmentTask MultiEdgeTask() {
  AlignmentTask task;
  task.name = "multi-edge";
  auto build = [](KnowledgeGraph* kg, const char* suffix, bool second) {
    const ClassId thing = kg->AddClass(std::string("Thing") + suffix);
    const ClassId place = kg->AddClass(std::string("Place") + suffix);
    const RelationId r = kg->AddRelation(std::string("r") + suffix);
    const RelationId s = kg->AddRelation(std::string("s") + suffix);
    std::vector<EntityId> e;
    for (int i = 0; i < 7; ++i) {
      e.push_back(kg->AddEntity(std::string("e") + std::to_string(i) + suffix));
      kg->AddTypeTriplet(e.back(), i % 2 == 0 ? thing : place);
    }
    kg->AddTypeTriplet(e[0], place);
    kg->AddTriplet(e[0], r, e[1]);
    kg->AddTriplet(e[0], r, e[1]);
    kg->AddTriplet(e[0], s, e[1]);
    kg->AddTriplet(e[0], r, e[2]);
    kg->AddTriplet(e[1], r, e[2]);
    kg->AddTriplet(e[3], s, e[0]);
    kg->AddTriplet(e[4], r, e[4]);
    if (second) {
      // A third KG2 relation, parallel to the others on (e0, e1), and a
      // fourth copy of that edge.
      const RelationId q = kg->AddRelation(std::string("q") + suffix);
      kg->AddTriplet(e[0], q, e[1]);
      kg->AddTriplet(e[0], r, e[1]);
      kg->AddTriplet(e[2], s, e[5]);
    } else {
      kg->AddTriplet(e[5], r, e[2]);
    }
    // e6 has no neighbours.
    DAAKG_CHECK(kg->Finalize().ok());
  };
  build(&task.kg1, "_a", false);
  build(&task.kg2, "_b", true);
  for (uint32_t e = 0; e < 7; ++e) task.gold_entities.emplace_back(e, e);
  for (uint32_t r = 0; r < 2; ++r) task.gold_relations.emplace_back(r, r);
  for (uint32_t c = 0; c < 2; ++c) task.gold_classes.emplace_back(c, c);
  task.BuildGoldIndex();
  return task;
}

// Appends every relation pair, reverse relations included.
void AddRelationPairs(const AlignmentTask& task,
                      std::vector<ElementPair>* pool) {
  for (RelationId r1 = 0; r1 < task.kg1.num_relations(); ++r1) {
    for (RelationId r2 = 0; r2 < task.kg2.num_relations(); ++r2) {
      pool->push_back({ElementKind::kRelation, r1, r2});
    }
  }
}

// Appends every class pair.
void AddClassPairs(const AlignmentTask& task, std::vector<ElementPair>* pool) {
  for (ClassId c1 = 0; c1 < task.kg1.num_classes(); ++c1) {
    for (ClassId c2 = 0; c2 < task.kg2.num_classes(); ++c2) {
      pool->push_back({ElementKind::kClass, c1, c2});
    }
  }
}

// Appends (e1, e2) for every KG2 entity e2.
void AddAllPartners(const AlignmentTask& task, EntityId e1,
                    std::vector<ElementPair>* pool) {
  for (EntityId e2 = 0; e2 < task.kg2.num_entities(); ++e2) {
    pool->push_back({ElementKind::kEntity, e1, e2});
  }
}

TEST(AlignmentGraphTest, MatchesReferenceJoin) {
  // The hand-built mirror task: reverse-relation and type edges.
  EXPECT_GT(ExpectMatchesReferenceJoin(MirrorTask(), MirrorPool()), 0u);

  // Pools a join grouped by KG1 entity could get wrong.
  const AlignmentTask multi = MultiEdgeTask();
  EXPECT_EQ(ExpectMatchesReferenceJoin(multi, {}), 0u);
  std::vector<ElementPair> schema_only;
  AddRelationPairs(multi, &schema_only);
  AddClassPairs(multi, &schema_only);
  EXPECT_EQ(ExpectMatchesReferenceJoin(multi, schema_only), 0u);
  // Every entity pair and every class pair, but no relation pair: type
  // edges only.
  std::vector<ElementPair> types_only;
  for (EntityId e1 = 0; e1 < multi.kg1.num_entities(); ++e1) {
    AddAllPartners(multi, e1, &types_only);
  }
  AddClassPairs(multi, &types_only);
  EXPECT_GT(ExpectMatchesReferenceJoin(multi, types_only), 0u);
  // The full cross product, schema pairs last: duplicate and parallel
  // triplets on both sides, self-loops, and e6 without neighbours.
  std::vector<ElementPair> full = types_only;
  AddRelationPairs(multi, &full);
  EXPECT_GT(ExpectMatchesReferenceJoin(multi, full), full.size());
  // Pairs repeated at non-adjacent positions, with another pair of the same
  // KG1 entity between them; the repeats of (e1, e1) are also targets.
  std::vector<ElementPair> repeats = {
      {ElementKind::kEntity, 0, 0}, {ElementKind::kEntity, 1, 1},
      {ElementKind::kEntity, 0, 3}, {ElementKind::kEntity, 1, 2},
      {ElementKind::kEntity, 0, 0}, {ElementKind::kEntity, 1, 1},
      {ElementKind::kEntity, 2, 2}, {ElementKind::kEntity, 6, 6},
      {ElementKind::kEntity, 0, 6}, {ElementKind::kEntity, 1, 1}};
  AddRelationPairs(multi, &repeats);
  AddClassPairs(multi, &repeats);
  EXPECT_GT(ExpectMatchesReferenceJoin(multi, repeats), 0u);

  for (BenchmarkDataset dataset :
       {BenchmarkDataset::kDW, BenchmarkDataset::kDY, BenchmarkDataset::kEnDe,
        BenchmarkDataset::kEnFr}) {
    for (uint64_t seed : {17u, 1u}) {
      auto task = MakeBenchmarkTask(dataset, 0.2, seed);
      ASSERT_TRUE(task.ok()) << task.status();
      Rng rng(seed);
      const std::vector<ElementPair> pool = NearGoldPool(*task, &rng);
      EXPECT_GT(ExpectMatchesReferenceJoin(*task, pool), pool.size())
          << task->name << " seed " << seed;
    }
  }

  // One KG1 entity, the one with most neighbours, and the tails of its
  // first edges each paired with every KG2 entity: many nodes per KG1
  // entity and long stamp chains.
  auto task = MakeBenchmarkTask(BenchmarkDataset::kDY, 0.2, 17);
  ASSERT_TRUE(task.ok()) << task.status();
  EntityId hub = 0;
  for (EntityId e1 = 0; e1 < task->kg1.num_entities(); ++e1) {
    if (task->kg1.Neighbors(e1).size() > task->kg1.Neighbors(hub).size()) {
      hub = e1;
    }
  }
  std::vector<ElementPair> dense;
  AddAllPartners(*task, hub, &dense);
  const auto& hub_edges = task->kg1.Neighbors(hub);
  for (size_t k = 0; k < std::min<size_t>(4, hub_edges.size()); ++k) {
    AddAllPartners(*task, hub_edges[k].tail, &dense);
  }
  AddRelationPairs(*task, &dense);
  AddClassPairs(*task, &dense);
  EXPECT_GT(ExpectMatchesReferenceJoin(*task, dense), dense.size());
}

}  // namespace
}  // namespace daakg

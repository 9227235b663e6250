#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "active/oracle.h"
#include "active/pool.h"
#include "active/selection.h"
#include "active/strategies.h"
#include "embedding/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "tensor/topk.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

using testing_util::SmallSyntheticTask;

// A trained TransE joint model on `task` with fresh caches; the same
// construction gives the same parameters.
struct TrainedJointStack {
  explicit TrainedJointStack(const AlignmentTask& task) {
    KgeConfig kge;
    kge.dim = 16;
    kge.class_dim = 8;
    kge.epochs = 10;
    model1 = MakeKgeModel(KgeModelKind::kTransE, &task.kg1, kge);
    model2 = MakeKgeModel(KgeModelKind::kTransE, &task.kg2, kge);
    Rng rng(61);
    model1->Init(&rng);
    model2->Init(&rng);
    JointAlignConfig jcfg;
    joint = std::make_unique<JointAlignmentModel>(model1.get(), model2.get(),
                                                  nullptr, nullptr, jcfg);
    joint->Init(&rng);
    KgeTrainer t1(model1.get(), nullptr);
    KgeTrainer t2(model2.get(), nullptr);
    Rng r1(62), r2(63);
    t1.Train(&r1);
    t2.Train(&r2);
    SeedAlignment seed = task.SampleSeed(0.2, &rng);
    for (int e = 0; e < 15; ++e) joint->TrainEpoch(seed, &rng, false);
    joint->RefreshCaches();
  }

  std::unique_ptr<KgeModel> model1, model2;
  std::unique_ptr<JointAlignmentModel> joint;
};

// Shared fixture: small synthetic task with a trained joint model, a pool,
// an alignment graph and an inference engine.
class ActiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = SmallSyntheticTask();
    TrainedJointStack stack(task_);
    model1_ = std::move(stack.model1);
    model2_ = std::move(stack.model2);
    joint_ = std::move(stack.joint);

    PoolConfig pcfg;
    pcfg.top_n = 10;
    PoolGenerator gen(&task_, joint_.get(), pcfg);
    pool_ = gen.Generate();
    graph_ = std::make_unique<AlignmentGraph>(&task_, pool_);
    InferenceConfig icfg;
    icfg.power_floor = 0.05;
    icfg.max_hops = 3;
    engine_ = std::make_unique<InferenceEngine>(graph_.get(), joint_.get(),
                                                icfg);
    engine_->PrecomputeEdgeCosts();
    labeled_.assign(pool_.size(), false);
    ctx_ = SelectionContext{engine_.get(), joint_.get(), &labeled_};
  }

  AlignmentTask task_;
  std::unique_ptr<KgeModel> model1_, model2_;
  std::unique_ptr<JointAlignmentModel> joint_;
  std::vector<ElementPair> pool_;
  std::unique_ptr<AlignmentGraph> graph_;
  std::unique_ptr<InferenceEngine> engine_;
  std::vector<bool> labeled_;
  SelectionContext ctx_;
};

// ---------------------------------------------------------------------------
// Pool generation
// ---------------------------------------------------------------------------

TEST_F(ActiveTest, PoolContainsAllSchemaPairs) {
  size_t rel_pairs = 0, cls_pairs = 0;
  for (const auto& p : pool_) {
    if (p.kind == ElementKind::kRelation) ++rel_pairs;
    if (p.kind == ElementKind::kClass) ++cls_pairs;
  }
  EXPECT_EQ(rel_pairs, task_.kg1.num_base_relations() *
                           task_.kg2.num_base_relations());
  EXPECT_EQ(cls_pairs, task_.kg1.num_classes() * task_.kg2.num_classes());
}

TEST_F(ActiveTest, PoolEntityPairsAreMutualTopN) {
  // Every entity appears at most top_n times on each side.
  std::vector<int> count1(task_.kg1.num_entities(), 0);
  std::vector<int> count2(task_.kg2.num_entities(), 0);
  for (const auto& p : pool_) {
    if (p.kind != ElementKind::kEntity) continue;
    ++count1[p.first];
    ++count2[p.second];
  }
  for (int c : count1) EXPECT_LE(c, 10);
  for (int c : count2) EXPECT_LE(c, 10);
}

TEST_F(ActiveTest, PoolIsMuchSmallerThanCrossProduct) {
  size_t ent_pairs = 0;
  for (const auto& p : pool_) {
    if (p.kind == ElementKind::kEntity) ++ent_pairs;
  }
  EXPECT_LT(ent_pairs, task_.kg1.num_entities() * task_.kg2.num_entities());
  EXPECT_GT(ent_pairs, 0u);
}

TEST_F(ActiveTest, SignatureHasTwiceEntityDim) {
  PoolConfig pcfg;
  PoolGenerator gen(&task_, joint_.get(), pcfg);
  EXPECT_EQ(gen.Signature(1, 0).dim(), 2 * model1_->dim());
  EXPECT_EQ(gen.Signature(2, 0).dim(), 2 * model2_->dim());
}

TEST_F(ActiveTest, RecallGrowsWithN) {
  PoolConfig small;
  small.top_n = 2;
  PoolConfig large;
  large.top_n = 30;
  PoolGenerator gs(&task_, joint_.get(), small);
  PoolGenerator gl(&task_, joint_.get(), large);
  double rs = gs.EntityPairRecall(gs.Generate());
  double rl = gl.EntityPairRecall(gl.Generate());
  EXPECT_GE(rl, rs);
  EXPECT_GE(rl, 0.0);
  EXPECT_LE(rl, 1.0);
}

TEST_F(ActiveTest, GeneratedPoolMatchesBruteForceMutualTopN) {
  // Parity with the pre-blocked-kernel algorithm: materialize the full
  // signature-similarity matrix, take TopKIndices per row and per column,
  // keep mutual pairs. The reference scores use the dispatched dot so both
  // sides share the same summation order — near-ties at the top-N boundary
  // would otherwise flip on last-ulp differences (the dot itself is checked
  // against a naive dot in tensor_test). Everything downstream of the dot —
  // tiling, streaming top-K, tie-breaks, mutual intersection — must agree
  // exactly with the seed algorithm.
  PoolConfig pcfg;
  pcfg.top_n = 10;  // same as the fixture's pool_
  PoolGenerator gen(&task_, joint_.get(), pcfg);
  const size_t n1 = task_.kg1.num_entities();
  const size_t n2 = task_.kg2.num_entities();
  const size_t dim = 2 * model1_->dim();
  Matrix sig1(n1, dim), sig2(n2, dim);
  for (size_t e = 0; e < n1; ++e) {
    Vector s = gen.Signature(1, static_cast<EntityId>(e));
    s.Normalize();
    sig1.SetRow(e, s);
  }
  for (size_t e = 0; e < n2; ++e) {
    Vector s = gen.Signature(2, static_cast<EntityId>(e));
    s.Normalize();
    sig2.SetRow(e, s);
  }
  Matrix sim(n1, n2);
  for (size_t r = 0; r < n1; ++r) {
    for (size_t c = 0; c < n2; ++c) {
      sim(r, c) = simd::ActiveOps().dot(sig1.RowData(r), sig2.RowData(c), dim);
    }
  }
  std::vector<std::set<size_t>> col_top(n2);
  for (size_t c = 0; c < n2; ++c) {
    std::vector<float> col(n1);
    for (size_t r = 0; r < n1; ++r) col[r] = sim(r, c);
    for (size_t r : TopKIndices(col, pcfg.top_n)) col_top[c].insert(r);
  }
  std::set<std::pair<uint32_t, uint32_t>> expected;
  for (size_t r = 0; r < n1; ++r) {
    std::vector<float> row(sim.RowData(r), sim.RowData(r) + n2);
    for (size_t c : TopKIndices(row, pcfg.top_n)) {
      if (col_top[c].count(r) > 0) {
        expected.emplace(static_cast<uint32_t>(r), static_cast<uint32_t>(c));
      }
    }
  }
  std::set<std::pair<uint32_t, uint32_t>> actual;
  for (const auto& p : pool_) {
    if (p.kind == ElementKind::kEntity) actual.emplace(p.first, p.second);
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(ActiveTest, RepeatedGenerateReusesCachedIndex) {
  // Signatures and their normalized forms are computed once per
  // cache generation, in the model's pool slot; repeated Generate() calls
  // (the per-N sweep in bench/fig6_pool_recall) must reuse them and stay
  // deterministic.
  PoolConfig pcfg;
  pcfg.top_n = 10;
  PoolGenerator gen(&task_, joint_.get(), pcfg);
  const std::vector<ElementPair> first = gen.Generate();
  const float* index_after_first = gen.index().RowData(0);
  const std::vector<ElementPair> second = gen.Generate();
  EXPECT_EQ(gen.index().RowData(0), index_after_first);  // no rebuild
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, pool_);  // identical to the fixture's generator's pool
  // The explicit-top_n overload with the configured value is the same pool.
  EXPECT_EQ(gen.Generate(pcfg.top_n), first);
  EXPECT_EQ(gen.index().RowData(0), index_after_first);
}

TEST_F(ActiveTest, UnchangedModelSharesPoolAcrossGenerators) {
  // Generators on an unchanged model share the signatures and the last pool
  // through the model's pool slot: the signatures are built once, and
  // every pool equals one from a model that never cached any.
  // Signature builds are counted as active.pool_signatures spans.
  TrainedJointStack stack(task_);
  PoolConfig pcfg;
  pcfg.top_n = 10;
  ASSERT_TRUE(obs::TraceSession::Global().Start().ok());
  const PoolGenerator a(&task_, stack.joint.get(), pcfg);
  const PoolGenerator b(&task_, stack.joint.get(), pcfg);
  const std::vector<ElementPair> pool_a = a.Generate();
  const std::vector<ElementPair> pool_b = b.Generate();
  EXPECT_EQ(&a.index(), &b.index());
  size_t signature_builds = testing_util::CountSpans(
      obs::TraceSession::Global().Stop(), "active.pool_signatures");
  EXPECT_EQ(signature_builds, 1u);
  EXPECT_EQ(pool_a, pool_b);
  EXPECT_EQ(pool_a, pool_);

  // A changed top-N replaces the kept pool; alternating generators and
  // cut-offs never hands out a pool of another top-N.
  const std::vector<std::pair<const PoolGenerator*, size_t>> calls = {
      {&a, 10}, {&b, 25}, {&a, 10}, {&a, 25}, {&b, 10}};
  ASSERT_TRUE(obs::TraceSession::Global().Start().ok());
  for (const auto& [gen, top_n] : calls) {
    SCOPED_TRACE(top_n);
    TrainedJointStack uncached(task_);
    const PoolGenerator reference(&task_, uncached.joint.get(), pcfg);
    EXPECT_EQ(gen->Generate(top_n), reference.Generate(top_n));
  }
  EXPECT_EQ(&a.index(), &b.index());
  signature_builds += testing_util::CountSpans(
      obs::TraceSession::Global().Stop(), "active.pool_signatures");
  EXPECT_EQ(signature_builds, 1u + calls.size());
}

TEST_F(ActiveTest, PoolAfterEveryMutatorMatchesFreshModel) {
  // A pool generated before a parameter moves must not be served after the
  // refresh that follows: the pool then equals the one of a model that
  // took the same step without an earlier pool.
  Rng seed_rng(71);
  const SeedAlignment seed = task_.SampleSeed(0.2, &seed_rng);
  const std::vector<std::pair<ElementPair, double>> semi = {
      {ElementPair{ElementKind::kEntity, 1, 1}, 1.0},
      {ElementPair{ElementKind::kRelation, 0, 0}, 0.9},
      {ElementPair{ElementKind::kClass, 0, 0}, 0.8}};
  using Mutator = std::function<void(TrainedJointStack*)>;
  const std::vector<std::pair<std::string, Mutator>> mutators = {
      {"joint epoch",
       [&seed](TrainedJointStack* s) {
         Rng rng(72);
         s->joint->TrainEpoch(seed, &rng, /*focal=*/false);
       }},
      {"semi epoch",
       [&semi](TrainedJointStack* s) {
         Rng rng(73);
         s->joint->TrainSemiEpoch(semi, &rng);
       }},
      {"kge pair",
       [](TrainedJointStack* s) {
         const Triplet& t = s->model2->kg().triplets()[0];
         s->model2->TrainPair(t, (t.tail + 1) % s->model2->kg().num_entities(),
                              0.5f);
       }},
      {"mutable_entities",
       [](TrainedJointStack* s) {
         s->model1->mutable_entities()->RowData(3)[0] += 0.5f;
       }},
      {"joint init",
       [](TrainedJointStack* s) {
         Rng rng(74);
         s->joint->Init(&rng);
       }},
  };
  PoolConfig pcfg;
  pcfg.top_n = 10;
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    TrainedJointStack pooled(task_);
    const std::vector<ElementPair> before =
        PoolGenerator(&task_, pooled.joint.get(), pcfg).Generate();
    mutate(&pooled);
    pooled.joint->RefreshCaches();
    const std::vector<ElementPair> after =
        PoolGenerator(&task_, pooled.joint.get(), pcfg).Generate();

    TrainedJointStack fresh(task_);
    mutate(&fresh);
    fresh.joint->RefreshCaches();
    EXPECT_EQ(after,
              PoolGenerator(&task_, fresh.joint.get(), pcfg).Generate());
    EXPECT_NE(after, before);
  }
}

// ---------------------------------------------------------------------------
// Selection algorithms
// ---------------------------------------------------------------------------

TEST_F(ActiveTest, GreedySelectsRequestedBatch) {
  SelectionConfig cfg;
  cfg.batch_size = 15;
  SelectionResult result = GreedySelect(ctx_, cfg);
  EXPECT_LE(result.selected.size(), 15u);
  EXPECT_GT(result.selected.size(), 0u);
  std::set<uint32_t> uniq(result.selected.begin(), result.selected.end());
  EXPECT_EQ(uniq.size(), result.selected.size());
  EXPECT_GE(result.objective, 0.0);
}

TEST_F(ActiveTest, GreedyRespectsLabeledMask) {
  SelectionConfig cfg;
  cfg.batch_size = 10;
  SelectionResult first = GreedySelect(ctx_, cfg);
  for (uint32_t q : first.selected) labeled_[q] = true;
  SelectionResult second = GreedySelect(ctx_, cfg);
  for (uint32_t q : second.selected) {
    EXPECT_EQ(std::count(first.selected.begin(), first.selected.end(), q), 0);
  }
}

TEST_F(ActiveTest, GreedyGainsAreNonIncreasing) {
  // Submodularity: the marginal objective contribution of each successive
  // pick must not increase.
  SelectionConfig cfg;
  cfg.batch_size = 12;
  SelectionResult result = GreedySelect(ctx_, cfg);
  // Re-simulate to get per-step gains.
  std::vector<float> m(pool_.size(), 0.0f);
  double prev_gain = 1e30;
  for (uint32_t q : result.selected) {
    double pr = joint_->MatchProbability(pool_[q]);
    double gain = 0.0;
    for (const auto& [q2, p] : engine_->PowerFrom(q)) {
      float delta = std::max(0.0f, p - m[q2]);
      gain += delta;
    }
    gain *= pr;
    EXPECT_LE(gain, prev_gain + 1e-6);
    prev_gain = gain;
    for (const auto& [q2, p] : engine_->PowerFrom(q)) {
      m[q2] += static_cast<float>(pr) * std::max(0.0f, p - m[q2]);
    }
  }
}

TEST_F(ActiveTest, PartitionSelectionProducesValidBatch) {
  SelectionConfig cfg;
  cfg.batch_size = 15;
  cfg.rho = 0.9;
  SelectionResult result = PartitionSelect(ctx_, cfg);
  EXPECT_LE(result.selected.size(), 15u);
  std::set<uint32_t> uniq(result.selected.begin(), result.selected.end());
  EXPECT_EQ(uniq.size(), result.selected.size());
  for (uint32_t q : result.selected) EXPECT_FALSE(labeled_[q]);
}

TEST_F(ActiveTest, PartitionSelectionKeepsMostInferencePower) {
  SelectionConfig cfg;
  cfg.batch_size = 10;
  SelectionResult greedy = GreedySelect(ctx_, cfg);
  cfg.rho = 0.9;
  SelectionResult part = PartitionSelect(ctx_, cfg);
  double exact_greedy = EvaluateSelectionObjective(ctx_, greedy.selected);
  double exact_part = EvaluateSelectionObjective(ctx_, part.selected);
  if (exact_greedy > 0.0) {
    // Theorem 6.2 promises rho^mu (1 - 1/e) on the *estimated* objective;
    // at this toy pool size the coarse estimate is at its weakest, so only
    // a loose sanity factor is asserted here. The bench-scale measurement
    // (fig7_partitioning) is the meaningful check and retains ~97% of the
    // exact objective.
    EXPECT_GE(exact_part, 0.1 * exact_greedy);
  }
}

// Pins the groups and the batch PartitionSelect reaches at several rho. The
// splitting loop picks the label of the most intra-group edges; a tie goes
// to the lowest label. Breaking ties toward the highest label instead
// changes these pins and fails
// PartitionSelectTest.MatchesReferenceImplementation.
TEST_F(ActiveTest, PartitionSplitsArePinned) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((word >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  size_t max_groups = 0;
  for (double rho : {0.5, 0.8, 0.9, 0.99}) {
    SelectionConfig cfg;
    cfg.batch_size = 10;
    cfg.rho = rho;
    const SelectionResult result = PartitionSelect(ctx_, cfg);
    max_groups = std::max(max_groups, result.num_groups);
    mix(result.num_groups);
    for (uint32_t q : result.selected) mix(q);
    uint64_t bits;
    std::memcpy(&bits, &result.objective, sizeof(bits));
    mix(bits);
  }
  EXPECT_GT(max_groups, 1u);  // some rho splits
  EXPECT_EQ(h, 0x3F496ACC0C89ACD7ULL)
      << std::hex << "0x" << h << " on " << simd::ActiveOps().name;
}

// Concurrency stress: both selectors evaluate PowerFrom under ParallelFor
// against the read-only bound caches. Repeated runs must agree exactly —
// under TSan this doubles as the data-race regression test for the old
// lazily-populated BoundFor.
TEST_F(ActiveTest, RepeatedSelectionIsDeterministic) {
  SelectionConfig cfg;
  cfg.batch_size = 12;
  cfg.rho = 0.9;
  const SelectionResult greedy0 = GreedySelect(ctx_, cfg);
  const SelectionResult part0 = PartitionSelect(ctx_, cfg);
  for (int iter = 0; iter < 5; ++iter) {
    EXPECT_EQ(GreedySelect(ctx_, cfg).selected, greedy0.selected) << iter;
    EXPECT_EQ(PartitionSelect(ctx_, cfg).selected, part0.selected) << iter;
  }
}

// The power row of an entity-pair source as first computed: the mu-hop
// search on best/frontier/next hash maps, then the strongest gradient power
// per schema node in a hash map. Sorted, since row order is unspecified.
PowerRow ReferenceEntityPowerRow(const InferenceEngine& engine, uint32_t src) {
  const AlignmentGraph& graph = engine.graph();
  const InferenceConfig& config = engine.config();
  const float max_cost =
      static_cast<float>(1.0 / config.power_floor - 1.0) + 1e-6f;
  PowerRow out;
  std::unordered_map<uint32_t, float> best;
  std::unordered_map<uint32_t, float> frontier{{src, 0.0f}};
  best[src] = 0.0f;
  for (int hop = 0; hop < config.max_hops && !frontier.empty(); ++hop) {
    std::unordered_map<uint32_t, float> next;
    for (const auto& [node, cost] : frontier) {
      const auto edges = graph.Out(node);
      for (size_t k = 0; k < edges.size(); ++k) {
        const float c = engine.EdgeCost(node, k);
        if (!std::isfinite(c)) continue;
        const float nc = cost + c;
        if (nc > max_cost) continue;
        const uint32_t tgt = edges[k].target;
        auto it = best.find(tgt);
        if (it == best.end() || nc < it->second) {
          best[tgt] = nc;
          next[tgt] = nc;
        }
      }
    }
    frontier = std::move(next);
  }
  for (const auto& [node, cost] : best) {
    if (node == src) continue;
    const float power = 1.0f / (1.0f + cost);
    if (power > config.power_floor) out.emplace_back(node, power);
  }
  const ElementPair& src_pair = graph.pool()[src];
  std::unordered_map<uint32_t, float> schema_power;
  for (const AlignmentGraph::Edge& e : graph.Out(src)) {
    if (e.rel_pair == AlignmentGraph::kTypeLabel) {
      auto& slot = schema_power[e.target];
      slot = std::max(slot, engine.PowerEntityToClass(
                                src_pair, graph.pool()[e.target]));
    } else {
      auto& slot = schema_power[e.rel_pair];
      slot = std::max(slot, engine.PowerEntityToRelation(
                                src_pair, graph.pool()[e.rel_pair],
                                graph.pool()[e.target]));
    }
  }
  for (const auto& [node, power] : schema_power) {
    if (power > config.power_floor) out.emplace_back(node, power);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// PowerFrom's dense search finds the reference's entries, bit for bit, from
// every entity-pair source, on one scratch reused across sources.
TEST_F(ActiveTest, PowerFromMatchesReferenceSearch) {
  HopSearch search(graph_->num_nodes());
  size_t entries = 0;
  for (uint32_t q = 0; q < graph_->num_nodes(); ++q) {
    if (pool_[q].kind != ElementKind::kEntity) continue;
    PowerRow got = engine_->PowerFrom(q, &search);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, ReferenceEntityPowerRow(*engine_, q)) << "node " << q;
    entries += got.size();
  }
  EXPECT_GT(entries, graph_->num_nodes());
}

// ---------------------------------------------------------------------------
// Algorithm 2 against the first, hash-based implementation
// ---------------------------------------------------------------------------

// A one-hop power entry as the first implementation kept them: one vector
// per node.
struct ReferenceOneHop {
  uint32_t target;
  uint32_t label;
  float power;
};

// The lazy greedy loop of the first implementation, gain and commit behind
// std::function.
template <typename Entry>
SelectionResult ReferenceLazyGreedy(
    const SelectionContext& ctx, const SelectionConfig& config,
    const std::vector<std::vector<Entry>>& rows,
    const std::vector<double>& prob,
    const std::function<double(const std::vector<Entry>&,
                               const std::vector<float>&)>& gain_fn,
    const std::function<void(const std::vector<Entry>&, double,
                             std::vector<float>*)>& commit_fn,
    size_t m_size) {
  constexpr float kLazyEps = 1e-9f;
  SelectionResult result;
  std::vector<float> m(m_size, 0.0f);
  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item> queue;
  for (uint32_t q = 0; q < rows.size(); ++q) {
    if ((*ctx.labeled)[q]) continue;
    if (rows[q].empty()) continue;
    queue.emplace(prob[q] * gain_fn(rows[q], m), q);
  }
  std::vector<bool> taken(rows.size(), false);
  while (result.selected.size() < config.batch_size && !queue.empty()) {
    auto [g, q] = queue.top();
    queue.pop();
    if (taken[q]) continue;
    const double fresh = prob[q] * gain_fn(rows[q], m);
    if (!queue.empty() && fresh + kLazyEps < queue.top().first) {
      queue.emplace(fresh, q);
      continue;
    }
    taken[q] = true;
    result.selected.push_back(q);
    result.objective += fresh;
    commit_fn(rows[q], prob[q], &m);
  }
  return result;
}

// Algorithm 2 as first written: per-node one-hop vectors, the label counts
// and the coarse graph in hash maps, and the mu-1-hop coarse search on
// per-source best/frontier/next hash maps.
SelectionResult ReferencePartitionSelect(const SelectionContext& ctx,
                                         const SelectionConfig& config) {
  struct GroupEntry {
    uint32_t group;
    float power;
    uint32_t count;
  };
  constexpr size_t kMaxSplits = 512;
  const AlignmentGraph& graph = ctx.engine->graph();
  const size_t n = graph.num_nodes();
  const int mu = ctx.engine->config().max_hops;

  std::vector<std::vector<ReferenceOneHop>> onehop(n);
  for (uint32_t q = 0; q < n; ++q) {
    const ElementPair& src = graph.pool()[q];
    if (src.kind != ElementKind::kEntity) continue;
    const auto edges = graph.Out(q);
    for (size_t k = 0; k < edges.size(); ++k) {
      const AlignmentGraph::Edge& e = edges[k];
      const float power =
          e.rel_pair == AlignmentGraph::kTypeLabel
              ? ctx.engine->PowerEntityToClass(src, graph.pool()[e.target])
              : 1.0f / (1.0f + ctx.engine->EdgeCost(q, k));
      if (power > 0.0f) onehop[q].push_back({e.target, e.rel_pair, power});
    }
  }

  std::vector<uint32_t> group_of(n, 0);
  uint32_t num_groups = 1;
  std::vector<std::vector<uint32_t>> members(1);
  for (uint32_t q = 0; q < n; ++q) {
    if (graph.pool()[q].kind == ElementKind::kEntity) {
      group_of[q] = 0;
      members[0].push_back(q);
    } else {
      group_of[q] = num_groups;
      members.push_back({q});
      ++num_groups;
    }
  }
  std::vector<bool> frozen(members.size(), false);
  bool flag = true;
  size_t splits = 0;
  while (flag && splits < kMaxSplits) {
    flag = false;
    for (uint32_t i = 0; i < num_groups; ++i) {
      if (frozen[i] || members[i].size() < 2) continue;
      double inner = 0.0;
      double outer = 0.0;
      std::unordered_map<uint32_t, size_t> label_count;
      for (uint32_t q : members[i]) {
        for (const auto& hp : onehop[q]) {
          if (group_of[hp.target] == i) {
            inner += hp.power;
            ++label_count[hp.label];
          } else {
            outer += hp.power;
          }
        }
      }
      if (inner + outer <= 0.0 || outer / (inner + outer) >= config.rho) {
        continue;
      }
      uint32_t best_label = AlignmentGraph::kTypeLabel;
      size_t best_count = 0;
      for (const auto& [label, count] : label_count) {
        if (count > best_count ||
            (count == best_count && label < best_label)) {
          best_count = count;
          best_label = label;
        }
      }
      std::vector<uint32_t> moved;
      std::vector<uint32_t> kept;
      for (uint32_t q : members[i]) {
        bool has_label_edge = false;
        for (const auto& hp : onehop[q]) {
          if (hp.label == best_label && group_of[hp.target] == i) {
            has_label_edge = true;
            break;
          }
        }
        (has_label_edge ? moved : kept).push_back(q);
      }
      if (moved.empty() || kept.empty()) {
        frozen[i] = true;
        continue;
      }
      members[i] = std::move(kept);
      for (uint32_t q : moved) group_of[q] = num_groups;
      members.push_back(std::move(moved));
      frozen.push_back(false);
      ++num_groups;
      ++splits;
      flag = true;
      break;
    }
  }

  std::vector<uint32_t> group_size(num_groups, 0);
  for (uint32_t q = 0; q < n; ++q) {
    if (!(*ctx.labeled)[q]) ++group_size[group_of[q]];
  }
  auto key = [](uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  };
  std::unordered_map<uint64_t, float> coarse_cost;
  for (uint32_t q = 0; q < n; ++q) {
    const uint32_t ga = group_of[q];
    for (const auto& hp : onehop[q]) {
      const uint32_t gb = group_of[hp.target];
      if (ga == gb) continue;
      const float cost = 1.0f / hp.power - 1.0f;
      auto [it, inserted] = coarse_cost.emplace(key(ga, gb), cost);
      if (!inserted) it->second = std::min(it->second, cost);
    }
  }
  std::vector<std::vector<std::pair<uint32_t, float>>> coarse_adj(num_groups);
  for (const auto& [k, cost] : coarse_cost) {
    coarse_adj[static_cast<uint32_t>(k >> 32)].emplace_back(
        static_cast<uint32_t>(k & 0xFFFFFFFFu), cost);
  }
  const float power_floor =
      static_cast<float>(ctx.engine->config().power_floor);
  const float max_cost = 1.0f / power_floor - 1.0f + 1e-6f;

  std::vector<std::vector<GroupEntry>> rows(n);
  std::vector<double> prob(n, 0.0);
  for (uint32_t q = 0; q < n; ++q) {
    if ((*ctx.labeled)[q]) continue;
    prob[q] = ctx.model->MatchProbability(graph.pool()[q]);
    std::unordered_map<uint32_t, float> best;
    const ElementPair& pair = graph.pool()[q];
    if (pair.kind == ElementKind::kEntity) {
      for (const auto& hp : onehop[q]) {
        const float cost = 1.0f / hp.power - 1.0f;
        if (cost > max_cost) continue;
        const uint32_t g = group_of[hp.target];
        auto [it, inserted] = best.emplace(g, cost);
        if (!inserted) it->second = std::min(it->second, cost);
      }
    } else if (pair.kind == ElementKind::kRelation) {
      for (const auto& [node, power] : ctx.engine->PowerFrom(q)) {
        const float cost = 1.0f / power - 1.0f;
        const uint32_t g = group_of[node];
        auto [it, inserted] = best.emplace(g, cost);
        if (!inserted) it->second = std::min(it->second, cost);
      }
    } else {
      continue;
    }
    std::unordered_map<uint32_t, float> frontier = best;
    for (int hop = 1; hop < mu && !frontier.empty(); ++hop) {
      std::unordered_map<uint32_t, float> next;
      for (const auto& [g, cost] : frontier) {
        for (const auto& [h, c] : coarse_adj[g]) {
          const float nc = cost + c;
          if (nc > max_cost) continue;
          auto it = best.find(h);
          if (it == best.end() || nc < it->second) {
            best[h] = nc;
            next[h] = nc;
          }
        }
      }
      frontier = std::move(next);
    }
    for (const auto& [g, cost] : best) {
      const float power = 1.0f / (1.0f + cost);
      if (power > power_floor && group_size[g] > 0) {
        rows[q].push_back(GroupEntry{g, power, group_size[g]});
      }
    }
  }

  auto gain = [](const std::vector<GroupEntry>& row,
                 const std::vector<float>& m) {
    double g = 0.0;
    for (const auto& e : row) {
      g += static_cast<double>(e.count) * std::max(0.0f, e.power - m[e.group]);
    }
    return g;
  };
  auto commit = [](const std::vector<GroupEntry>& row, double pr,
                   std::vector<float>* m) {
    for (const auto& e : row) {
      (*m)[e.group] +=
          static_cast<float>(pr) * std::max(0.0f, e.power - (*m)[e.group]);
    }
  };
  SelectionResult result = ReferenceLazyGreedy<GroupEntry>(
      ctx, config, rows, prob, gain, commit, num_groups);
  result.num_groups = num_groups;
  return result;
}

// Batches, objective bits and group counts are equal.
void ExpectSameSelection(const SelectionResult& got,
                         const SelectionResult& want) {
  EXPECT_EQ(got.selected, want.selected);
  uint64_t got_bits;
  uint64_t want_bits;
  std::memcpy(&got_bits, &got.objective, sizeof(got_bits));
  std::memcpy(&want_bits, &want.objective, sizeof(want_bits));
  EXPECT_EQ(got_bits, want_bits);
  EXPECT_EQ(got.num_groups, want.num_groups);
}

// PartitionSelect gives the reference's batch, objective bits and group
// count on every dataset analogue, at two task seeds, two engine configs,
// four rho and three labeled masks. Registered again at DAAKG_THREADS=1.
TEST(PartitionSelectTest, MatchesReferenceImplementation) {
  size_t split_cases = 0;
  for (BenchmarkDataset dataset :
       {BenchmarkDataset::kDW, BenchmarkDataset::kDY, BenchmarkDataset::kEnDe,
        BenchmarkDataset::kEnFr}) {
    for (uint64_t seed : {17u, 1u}) {
      auto task = MakeBenchmarkTask(dataset, 0.2, seed);
      ASSERT_TRUE(task.ok()) << task.status();
      TrainedJointStack stack(task.value());
      PoolConfig pcfg;
      pcfg.top_n = 10;
      const std::vector<ElementPair> pool =
          PoolGenerator(&task.value(), stack.joint.get(), pcfg).Generate();
      const AlignmentGraph graph(&task.value(), pool);
      // The default engine, and the fixture's: a low power floor and few
      // hops, so the hop bound, not the cost bound, ends most paths.
      InferenceConfig short_paths;
      short_paths.power_floor = 0.05;
      short_paths.max_hops = 3;
      for (const InferenceConfig& icfg : {InferenceConfig{}, short_paths}) {
        InferenceEngine engine(&graph, stack.joint.get(), icfg);
        engine.PrecomputeEdgeCosts();

        const size_t n = pool.size();
        const size_t schema_nodes = static_cast<size_t>(std::count_if(
            pool.begin(), pool.end(), [](const ElementPair& pair) {
              return pair.kind != ElementKind::kEntity;
            }));
        std::vector<std::vector<bool>> masks(3, std::vector<bool>(n, false));
        for (size_t q = 0; q < n; q += 7) masks[1][q] = true;
        masks[2].assign(n, true);
        for (size_t k = 0; k < 15; ++k) masks[2][k * n / 15] = false;

        for (size_t mask = 0; mask < masks.size(); ++mask) {
          const SelectionContext ctx{&engine, stack.joint.get(), &masks[mask]};
          for (double rho : {0.5, 0.8, 0.9, 0.99}) {
            SCOPED_TRACE(testing::Message()
                         << BenchmarkDatasetName(dataset) << " seed " << seed
                         << " floor " << icfg.power_floor << " mask " << mask
                         << " rho " << rho);
            SelectionConfig cfg;
            cfg.batch_size = 20;
            cfg.rho = rho;
            const SelectionResult got = PartitionSelect(ctx, cfg);
            ExpectSameSelection(got, ReferencePartitionSelect(ctx, cfg));
            EXPECT_FALSE(got.selected.empty());
            // Entity pairs start as one group, schema pairs as singletons.
            split_cases += got.num_groups > 1 + schema_nodes;
          }
        }
      }
    }
  }
  EXPECT_GT(split_cases, 96u);  // most of the 192 cases split
}

// Two relation pairs tie on the first split, four intra-group edges each.
// Splitting on r (edges e0-e1 and e3-e2) would move every entity pair, so
// the group freezes whole; splitting on s (edges e2-e3 and e3-e0) moves all
// but (e1, e1) and makes two entity groups. The tie goes to the lower label,
// the relation pair listed first in the pool, in either pool order.
TEST(PartitionSelectTest, TiedLabelsSplitOnTheLowest) {
  AlignmentTask task;
  task.name = "tied-labels";
  for (KnowledgeGraph* kg : {&task.kg1, &task.kg2}) {
    const RelationId r = kg->AddRelation("r");
    const RelationId s = kg->AddRelation("s");
    std::vector<EntityId> e;
    for (int i = 0; i < 4; ++i) {
      e.push_back(kg->AddEntity("e" + std::to_string(i)));
    }
    kg->AddTriplet(e[0], r, e[1]);
    kg->AddTriplet(e[3], r, e[2]);
    kg->AddTriplet(e[2], s, e[3]);
    kg->AddTriplet(e[3], s, e[0]);
    ASSERT_TRUE(kg->Finalize().ok());
  }
  for (uint32_t e = 0; e < 4; ++e) task.gold_entities.emplace_back(e, e);
  for (uint32_t r = 0; r < 2; ++r) task.gold_relations.emplace_back(r, r);
  task.BuildGoldIndex();
  TrainedJointStack stack(task);

  for (const RelationId first : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << "relation pair " << first << " first");
    std::vector<ElementPair> pool;
    for (EntityId e = 0; e < 4; ++e) {
      pool.push_back({ElementKind::kEntity, e, e});
    }
    pool.push_back({ElementKind::kRelation, first, first});
    pool.push_back({ElementKind::kRelation, 1 - first, 1 - first});
    const AlignmentGraph graph(&task, pool);
    InferenceEngine engine(&graph, stack.joint.get(), InferenceConfig{});
    engine.PrecomputeEdgeCosts();
    // All eight edges count only if each has a positive one-hop power.
    ASSERT_EQ(engine.OneHopPowers().target.size(), 8u);
    const std::vector<bool> labeled(pool.size(), false);
    const SelectionContext ctx{&engine, stack.joint.get(), &labeled};
    SelectionConfig cfg;
    cfg.batch_size = 2;
    const SelectionResult got = PartitionSelect(ctx, cfg);
    // Entity groups plus the two relation-pair singletons.
    EXPECT_EQ(got.num_groups, (first == 0 ? 1u : 2u) + 2u);
    ExpectSameSelection(got, ReferencePartitionSelect(ctx, cfg));
  }
}

// One trained model on the D-Y analogue (scale 0.2, seed 17) and its
// top-10 pool, planned against without retraining.
struct PlanningSession {
  PlanningSession()
      : task(MakeBenchmarkTask(BenchmarkDataset::kDY, 0.2, 17).value()),
        stack(task) {
    PoolConfig pcfg;
    pcfg.top_n = 10;
    pool = PoolGenerator(&task, stack.joint.get(), pcfg).Generate();
  }

  // Recomputes the model's caches without changing a value, so the next
  // plan starts from an empty slot: it is built cold.
  void ReleaseSlot() {
    (void)stack.model1->mutable_entities();
    stack.joint->RefreshCaches();
  }

  AlignmentTask task;
  TrainedJointStack stack;
  std::vector<ElementPair> pool;
};

obs::Counter* EdgeCostBuilds() {
  return obs::GlobalMetrics().GetCounter("daakg.infer.edge_cost_builds");
}
obs::Counter* PartitionBuilds() {
  return obs::GlobalMetrics().GetCounter("daakg.active.partition_builds");
}

// A planning session on one unchanged model, as batch-plan runs it: every
// round builds a graph and an engine over the same pool, plans a batch and
// labels it. Round for round, the warm plans give what cold plans give, at
// both engine configs of the reference test and two rho; the warm session
// makes one edge-cost build and one partition build.
TEST(PartitionSelectTest, ReusedPlanMatchesColdPlan) {
  PlanningSession session;
  const JointAlignmentModel* joint = session.stack.joint.get();
  InferenceConfig short_paths;
  short_paths.power_floor = 0.05;
  short_paths.max_hops = 3;
  constexpr size_t kRounds = 6;
  for (const InferenceConfig& icfg : {InferenceConfig{}, short_paths}) {
    for (double rho : {0.5, 0.9}) {
      SCOPED_TRACE(testing::Message()
                   << "floor " << icfg.power_floor << " rho " << rho);
      SelectionConfig cfg;
      cfg.batch_size = 20;
      cfg.rho = rho;
      auto plan_round = [&](const std::vector<bool>& labeled) {
        const AlignmentGraph graph(&session.task, session.pool);
        InferenceEngine engine(&graph, joint, icfg);
        engine.PrecomputeEdgeCosts();
        return PartitionSelect(SelectionContext{&engine, joint, &labeled},
                               cfg);
      };

      session.ReleaseSlot();
      const uint64_t cost_builds = EdgeCostBuilds()->Value();
      const uint64_t partition_builds = PartitionBuilds()->Value();
      std::vector<bool> labeled(session.pool.size(), false);
      for (size_t q = 0; q < labeled.size(); q += 7) labeled[q] = true;
      std::vector<std::vector<bool>> masks;
      std::vector<SelectionResult> warm;
      for (size_t round = 0; round < kRounds; ++round) {
        masks.push_back(labeled);
        warm.push_back(plan_round(labeled));
        ASSERT_FALSE(warm.back().selected.empty());
        for (uint32_t q : warm.back().selected) labeled[q] = true;
      }
      EXPECT_EQ(EdgeCostBuilds()->Value() - cost_builds, 1u);
      EXPECT_EQ(PartitionBuilds()->Value() - partition_builds, 1u);

      for (size_t round = 0; round < kRounds; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        session.ReleaseSlot();
        ExpectSameSelection(warm[round], plan_round(masks[round]));
      }
      EXPECT_EQ(EdgeCostBuilds()->Value() - cost_builds, 1u + kRounds);
      EXPECT_EQ(PartitionBuilds()->Value() - partition_builds, 1u + kRounds);
    }
  }

  // Once an engine on another pool has replaced the slot's table, an
  // engine still holding the old one plans on an unshared plan of its own.
  session.ReleaseSlot();
  const AlignmentGraph graph(&session.task, session.pool);
  InferenceEngine engine(&graph, joint, InferenceConfig{});
  engine.PrecomputeEdgeCosts();
  SelectionConfig cfg;
  cfg.batch_size = 20;
  const std::vector<bool> none(session.pool.size(), false);
  const SelectionContext ctx{&engine, joint, &none};
  const SelectionResult want = PartitionSelect(ctx, cfg);
  PoolConfig top5;
  top5.top_n = 5;
  const std::vector<ElementPair> other =
      PoolGenerator(&session.task, joint, top5).Generate();
  ASSERT_NE(other.size(), session.pool.size());
  const AlignmentGraph other_graph(&session.task, other);
  InferenceEngine other_engine(&other_graph, joint, InferenceConfig{});
  other_engine.PrecomputeEdgeCosts();
  const std::vector<bool> other_none(other.size(), false);
  PartitionSelect(SelectionContext{&other_engine, joint, &other_none}, cfg);
  const uint64_t partition_builds = PartitionBuilds()->Value();
  ExpectSameSelection(PartitionSelect(ctx, cfg), want);
  EXPECT_EQ(PartitionBuilds()->Value() - partition_builds, 1u);
}

// Degenerate masks give the reference's result on a cold plan and on a warm
// one (planned first with nothing labeled, which fills every row):
//  * every node labeled: an empty batch;
//  * every node but one source: a row that reaches only groups with no
//    unlabeled member is never selected;
//  * a mask that un-labels nodes whose rows the earlier call did not fill.
TEST(PartitionSelectTest, DegenerateMasksOnColdAndWarmPlans) {
  PlanningSession session;
  const JointAlignmentModel* joint = session.stack.joint.get();
  const AlignmentGraph graph(&session.task, session.pool);
  const size_t n = session.pool.size();
  const InferenceConfig icfg;
  SelectionConfig cfg;
  cfg.batch_size = 20;
  cfg.rho = 0.9;
  // Plans on `labeled` against a fresh slot, after a first call on
  // `earlier` if given, and checks the result against the reference.
  auto select = [&](const std::vector<bool>& labeled,
                    const std::vector<bool>* earlier) {
    session.ReleaseSlot();
    InferenceEngine engine(&graph, joint, icfg);
    engine.PrecomputeEdgeCosts();
    if (earlier != nullptr) {
      PartitionSelect(SelectionContext{&engine, joint, earlier}, cfg);
    }
    const SelectionContext ctx{&engine, joint, &labeled};
    const SelectionResult got = PartitionSelect(ctx, cfg);
    ExpectSameSelection(got, ReferencePartitionSelect(ctx, cfg));
    return got;
  };
  const std::vector<bool> none(n, false);
  const std::vector<bool> all(n, true);

  // Sources whose rows are not empty: entity pairs with a one-hop entry
  // above the power floor, and relation pairs with a power row. No row
  // reaches a relation pair's group, a singleton, so with every other node
  // labeled a relation pair's row is left with no entry.
  std::vector<uint32_t> sources;
  size_t relation_sources = 0;
  {
    InferenceEngine engine(&graph, joint, icfg);
    engine.PrecomputeEdgeCosts();
    const InferenceEngine::OneHopCsr onehop = engine.OneHopPowers();
    for (uint32_t q = 0; q < n; ++q) {
      if (session.pool[q].kind == ElementKind::kRelation) {
        if (relation_sources < 6 && !engine.PowerFrom(q).empty()) {
          sources.push_back(q);
          ++relation_sources;
        }
        continue;
      }
      if (sources.size() - relation_sources == 6) continue;
      for (uint32_t e = onehop.offsets[q]; e < onehop.offsets[q + 1]; ++e) {
        if (onehop.power[e] > icfg.power_floor + 0.01) {
          sources.push_back(q);
          break;
        }
      }
    }
  }
  ASSERT_GT(relation_sources, 0u);
  ASSERT_GT(sources.size(), relation_sources);

  for (const std::vector<bool>* earlier :
       {static_cast<const std::vector<bool>*>(nullptr), &none}) {
    SCOPED_TRACE(earlier == nullptr ? "cold" : "warm");
    EXPECT_TRUE(select(all, earlier).selected.empty());
    size_t skipped = 0;
    for (uint32_t q : sources) {
      SCOPED_TRACE(testing::Message() << "all but " << q);
      std::vector<bool> all_but_q = all;
      all_but_q[q] = false;
      const SelectionResult got = select(all_but_q, earlier);
      skipped += got.selected.empty();
      if (!got.selected.empty()) {
        EXPECT_EQ(got.selected, std::vector<uint32_t>{q});
      }
    }
    EXPECT_GT(skipped, 0u);
  }

  // The first call fills 15 rows; the second needs most of the others.
  std::vector<bool> all_but_15 = all;
  for (size_t k = 0; k < 15; ++k) all_but_15[k * n / 15] = false;
  std::vector<bool> every_7th = none;
  for (size_t q = 0; q < n; q += 7) every_7th[q] = true;
  const SelectionResult got = select(every_7th, &all_but_15);
  EXPECT_TRUE(std::any_of(got.selected.begin(), got.selected.end(),
                          [&](uint32_t q) { return all_but_15[q]; }));
}

// Two threads, each with its own graph and engine over an equal pool, plan
// on one model's slot at once: they race for the edge-cost and partition
// builds and for the row fills, and both get a sequential run's results.
TEST(PartitionSelectTest, ConcurrentEnginesShareOnePlan) {
  PlanningSession session;
  const JointAlignmentModel* joint = session.stack.joint.get();
  const size_t n = session.pool.size();
  std::vector<std::vector<bool>> masks(3, std::vector<bool>(n, false));
  for (size_t q = 0; q < n; q += 7) masks[1][q] = true;
  masks[2].assign(n, true);
  for (size_t k = 0; k < 15; ++k) masks[2][k * n / 15] = false;
  auto run = [&](std::vector<SelectionResult>* out) {
    const AlignmentGraph graph(&session.task, session.pool);
    InferenceEngine engine(&graph, joint, InferenceConfig{});
    engine.PrecomputeEdgeCosts();
    for (double rho : {0.5, 0.9}) {
      SelectionConfig cfg;
      cfg.batch_size = 20;
      cfg.rho = rho;
      for (const std::vector<bool>& labeled : masks) {
        out->push_back(
            PartitionSelect(SelectionContext{&engine, joint, &labeled}, cfg));
      }
    }
  };
  std::vector<SelectionResult> want;
  run(&want);

  session.ReleaseSlot();
  const uint64_t cost_builds = EdgeCostBuilds()->Value();
  const uint64_t partition_builds = PartitionBuilds()->Value();
  std::vector<SelectionResult> a;
  std::vector<SelectionResult> b;
  std::thread ta(run, &a);
  std::thread tb(run, &b);
  ta.join();
  tb.join();
  EXPECT_EQ(EdgeCostBuilds()->Value() - cost_builds, 1u);
  EXPECT_EQ(PartitionBuilds()->Value() - partition_builds, 2u);
  ASSERT_EQ(a.size(), want.size());
  ASSERT_EQ(b.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "call " << i);
    ExpectSameSelection(a[i], want[i]);
    ExpectSameSelection(b[i], want[i]);
  }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

class StrategyTest : public ActiveTest,
                     public ::testing::WithParamInterface<int> {};

TEST_P(StrategyTest, ProducesValidUnlabeledBatch) {
  auto strategies = MakeAllStrategies();
  auto& strategy = strategies[GetParam()];
  // Pre-label a slice of the pool to exercise mask handling.
  for (size_t i = 0; i < pool_.size(); i += 7) labeled_[i] = true;
  Rng rng(70);
  auto batch = strategy->SelectBatch(ctx_, 12, &rng);
  EXPECT_LE(batch.size(), 12u);
  EXPECT_GT(batch.size(), 0u) << strategy->name();
  std::set<uint32_t> uniq(batch.begin(), batch.end());
  EXPECT_EQ(uniq.size(), batch.size());
  for (uint32_t q : batch) {
    EXPECT_LT(q, pool_.size());
    EXPECT_FALSE(labeled_[q]) << strategy->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Range(0, 6));

TEST_F(ActiveTest, StrategyRosterHasExpectedNames) {
  auto strategies = MakeAllStrategies();
  ASSERT_EQ(strategies.size(), 6u);
  EXPECT_EQ(strategies[0]->name(), "Random");
  EXPECT_EQ(strategies[5]->name(), "DAAKG");
}

TEST_F(ActiveTest, RandomStrategyIsSeedDependent) {
  RandomStrategy random;
  Rng a(1), b(2);
  auto batch_a = random.SelectBatch(ctx_, 20, &a);
  auto batch_b = random.SelectBatch(ctx_, 20, &b);
  EXPECT_NE(batch_a, batch_b);
  Rng c(1);
  auto batch_c = random.SelectBatch(ctx_, 20, &c);
  EXPECT_EQ(batch_a, batch_c);
}

TEST_F(ActiveTest, UncertaintyPrefersAmbiguousPairs) {
  UncertaintyStrategy uncertainty;
  Rng rng(71);
  auto batch = uncertainty.SelectBatch(ctx_, 5, &rng);
  ASSERT_FALSE(batch.empty());
  // Every selected pair's entropy must be >= the median unselected pair's.
  auto entropy = [this](uint32_t q) {
    double p = std::clamp(joint_->MatchProbability(pool_[q]), 1e-9, 1 - 1e-9);
    return -p * std::log(p) - (1 - p) * std::log(1 - p);
  };
  std::vector<double> unselected;
  std::set<uint32_t> chosen(batch.begin(), batch.end());
  for (uint32_t q = 0; q < pool_.size(); ++q) {
    if (!chosen.count(q)) unselected.push_back(entropy(q));
  }
  std::nth_element(unselected.begin(),
                   unselected.begin() + unselected.size() / 2,
                   unselected.end());
  double median = unselected[unselected.size() / 2];
  for (uint32_t q : batch) EXPECT_GE(entropy(q), median - 1e-9);
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

TEST(OracleTest, GoldOracleAnswersTruthAndCounts) {
  AlignmentTask task = SmallSyntheticTask();
  GoldOracle oracle(&task);
  EXPECT_EQ(oracle.queries(), 0u);
  const auto& [e1, e2] = task.gold_entities[0];
  EXPECT_TRUE(oracle.Label(ElementPair{ElementKind::kEntity, e1, e2}));
  const uint32_t wrong = static_cast<uint32_t>(
      (e2 + 1) % task.kg2.num_entities());
  EXPECT_FALSE(oracle.Label(ElementPair{ElementKind::kEntity, e1, wrong}));
  EXPECT_EQ(oracle.queries(), 2u);
}

}  // namespace
}  // namespace daakg

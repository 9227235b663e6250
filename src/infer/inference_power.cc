#include "infer/inference_power.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace daakg {
namespace {
constexpr float kInfCost = std::numeric_limits<float>::infinity();

// ||coef * g||^2, with g's squared norm from the dot kernel.
double ScaledSquaredNorm(const Vector& g, float coef) {
  return static_cast<double>(coef) * coef * g.SquaredNorm();
}

// One SplitMix64 step from state z.
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Seed of the bound stream of one (side, triplet): a function of the
// engine's seed and the triplet alone, never of the order of estimation.
uint64_t BoundSeed(uint64_t seed, int side, EntityId head, RelationId rel,
                   EntityId tail) {
  uint64_t x = Mix64(seed ^ static_cast<uint64_t>(side));
  x = Mix64(x ^ ((static_cast<uint64_t>(head) << 32) | tail));
  return Mix64(x ^ rel);
}
}  // namespace

InferenceEngine::InferenceEngine(const AlignmentGraph* graph,
                                 const JointAlignmentModel* model,
                                 const InferenceConfig& config)
    : graph_(graph), model_(model), config_(config) {
  DAAKG_CHECK(model->caches_ready());
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  power_from_calls_ = metrics.GetCounter("daakg.infer.power_from_calls");
  power_entries_ = metrics.GetCounter("daakg.infer.power_entries");
}

float AlternativeEntitySlack(size_t parallel_edges1, size_t parallel_edges2) {
  // Signed arithmetic, clamped per side: a count of zero (the resolved
  // relation has no parallel edge at this head) must contribute no slack,
  // not wrap a size_t to ~1.8e19 and blow up the edge cost.
  const int64_t alt1 =
      std::max<int64_t>(0, static_cast<int64_t>(parallel_edges1) - 1);
  const int64_t alt2 =
      std::max<int64_t>(0, static_cast<int64_t>(parallel_edges2) - 1);
  return static_cast<float>(alt1 + alt2);
}

void InferenceEngine::ResolveEdgeRelations(const ElementPair& src,
                                           const ElementPair& dst,
                                           const ElementPair& rel,
                                           RelationId* r1,
                                           RelationId* r2) const {
  // Resolve the actual (possibly reverse) relations behind the labeled pair.
  const KnowledgeGraph& kg1 = graph_->task().kg1;
  const KnowledgeGraph& kg2 = graph_->task().kg2;
  *r1 = rel.first;
  if (!kg1.HasTriplet(src.first, *r1, dst.first)) *r1 = kg1.ReverseOf(*r1);
  *r2 = rel.second;
  if (!kg2.HasTriplet(src.second, *r2, dst.second)) *r2 = kg2.ReverseOf(*r2);
}

void InferenceEngine::EstimateBound(int side, EntityId head, RelationId rel,
                                    EntityId tail,
                                    std::vector<std::atomic<bool>>* claimed,
                                    std::vector<float>* bounds) const {
  const KnowledgeGraph& kg =
      side == 1 ? graph_->task().kg1 : graph_->task().kg2;
  const size_t slot = kg.TripletIndex(head, rel, tail);
  DAAKG_CHECK(slot != KnowledgeGraph::kNoTriplet);
  if ((*claimed)[slot].exchange(true)) return;
  const KgeModel& model =
      side == 1 ? *model_->kg1_model() : *model_->kg2_model();
  // No cost reads r~; EstimateEdgeBound computes it alongside d.
  Rng rng(BoundSeed(config_.seed, side, head, rel, tail));
  Vector r_tilde;
  float d = 0.0f;
  model.EstimateEdgeBound(head, rel, tail, config_.bound_samples, &rng,
                          &r_tilde, &d);
  (*bounds)[slot] = d;
}

float InferenceEngine::BoundFor(int side, EntityId head, RelationId rel,
                                EntityId tail) const {
  const KnowledgeGraph& kg =
      side == 1 ? graph_->task().kg1 : graph_->task().kg2;
  const size_t slot = kg.TripletIndex(head, rel, tail);
  DAAKG_CHECK(slot != KnowledgeGraph::kNoTriplet);
  const float d = (side == 1 ? table_->bounds1 : table_->bounds2)[slot];
  // PrecomputeEdgeCosts estimates the bound of every triplet an edge
  // resolves to; anything else is a caller's error.
  DAAKG_CHECK(d != EdgeCostTable::kNotEstimated);
  return d;
}

float InferenceEngine::ComputeEdgeCost(uint32_t node,
                                       const AlignmentGraph::Edge& edge) const {
  if (edge.rel_pair == AlignmentGraph::kTypeLabel) return kInfCost;
  const ElementPair& src = graph_->pool()[node];
  const ElementPair& dst = graph_->pool()[edge.target];
  const ElementPair& rel = graph_->pool()[edge.rel_pair];
  const KnowledgeGraph& kg1 = graph_->task().kg1;
  const KnowledgeGraph& kg2 = graph_->task().kg2;

  RelationId r1, r2;
  ResolveEdgeRelations(src, dst, rel, &r1, &r2);

  const float d1 = BoundFor(1, src.first, r1, dst.first);
  const float d2 = BoundFor(2, src.second, r2, dst.second);

  // The relation-difference term of Eq. (15). Raw Euclidean distance
  // between r~ vectors mixes magnitude effects that the cosine-trained
  // mapping never controls; the joint model's calibrated relation
  // similarity is the same quantity on a clean [0, 2] scale (angle of
  // A_rel r~ vs r~'), so we use 1 - S(r, r') and keep the sampled bound
  // direction only through the d terms.
  const RelationId r1b = kg1.IsReverseRelation(r1) ? kg1.ReverseOf(r1) : r1;
  const RelationId r2b = kg2.IsReverseRelation(r2) ? kg2.ReverseOf(r2) : r2;
  const float rel_diff =
      kRelDiffWeight * (1.0f - model_->relation_sim()(r1b, r2b)) +
      kResidualWeight * (d1 + d2);

  // The d terms of Eq. (15) must cover "the size of the space of possible
  // entities" (Sect. 5.2): when the head emits several edges with the same
  // relation, the bound cannot single out the tail. Score residuals alone
  // do not see this, so each parallel edge beyond the first adds a unit of
  // slack (the alternative-entity condition made explicit).
  auto parallel_edges = [](const KnowledgeGraph& kg, EntityId h,
                           RelationId r) {
    size_t n = 0;
    for (const auto& nb : kg.Neighbors(h)) n += (nb.relation == r);
    return n;
  };
  const float alternatives =
      AlternativeEntitySlack(parallel_edges(kg1, src.first, r1),
                             parallel_edges(kg2, src.second, r2));
  return rel_diff + kAltPenalty * alternatives;
}

void InferenceEngine::PrecomputeEdgeCosts() {
  static obs::Counter* builds =
      obs::GlobalMetrics().GetCounter("daakg.infer.edge_cost_builds");
  obs::TraceSpan span("infer.precompute_edge_costs", "infer");
  span.AddArg("nodes", static_cast<double>(graph_->num_nodes()));
  const KnowledgeGraph* kg1 = &graph_->task().kg1;
  const KnowledgeGraph* kg2 = &graph_->task().kg2;
  // An equal pool over the same KGs gives the same graph, node for node and
  // edge for edge, so the slot's table is this engine's.
  const std::shared_ptr<PoolCache> slot = model_->pool_cache();
  std::lock_guard<std::mutex> lock(slot->mu);
  const std::shared_ptr<const EdgeCostTable>& kept = slot->edge_costs;
  if (kept != nullptr && kept->kg1 == kg1 && kept->kg2 == kg2 &&
      kept->config == config_ && kept->pool == graph_->pool()) {
    table_ = kept;
    return;
  }
  builds->Increment();
  auto table = std::make_shared<EdgeCostTable>();
  table->pool = graph_->pool();
  table->kg1 = kg1;
  table->kg2 = kg2;
  table->config = config_;
  table_ = table;  // BoundFor reads the bounds while the costs are built
  BuildEdgeCosts(table.get());
  slot->edge_costs = table_;
  slot->partitions.clear();  // they were built over the replaced table
}

void InferenceEngine::BuildEdgeCosts(EdgeCostTable* table) {
  const size_t n = graph_->num_nodes();

  // Phase 1 (parallel): the bound of every triplet a relational edge
  // resolves to, estimated once per distinct (side, triplet) into arrays
  // parallel to the KGs' triplets. The per-relation-pair edge lists of
  // PowerFrom are these same edges, so every later lookup finds its bound.
  // Each bound draws from its own seeded stream, so the result does not
  // depend on which thread claims a triplet first.
  {
    obs::TraceSpan bounds_span("infer.edge_bounds", "infer");
    const size_t t1 = graph_->task().kg1.num_triplets();
    const size_t t2 = graph_->task().kg2.num_triplets();
    table->bounds1.assign(t1, EdgeCostTable::kNotEstimated);
    table->bounds2.assign(t2, EdgeCostTable::kNotEstimated);
    std::vector<std::atomic<bool>> claimed1(t1);
    std::vector<std::atomic<bool>> claimed2(t2);
    GlobalThreadPool().ParallelFor(n, [&](size_t i) {
      const uint32_t node = static_cast<uint32_t>(i);
      const ElementPair& src = graph_->pool()[node];
      for (const AlignmentGraph::Edge& edge : graph_->Out(node)) {
        if (edge.rel_pair == AlignmentGraph::kTypeLabel) continue;
        const ElementPair& dst = graph_->pool()[edge.target];
        RelationId r1 = 0;
        RelationId r2 = 0;
        ResolveEdgeRelations(src, dst, graph_->pool()[edge.rel_pair], &r1,
                             &r2);
        EstimateBound(1, src.first, r1, dst.first, &claimed1,
                      &table->bounds1);
        EstimateBound(2, src.second, r2, dst.second, &claimed2,
                      &table->bounds2);
      }
    });
  }

  // Phase 2: per-edge costs against the now read-only bounds (parallel).
  {
    obs::TraceSpan costs_span("infer.edge_costs", "infer");
    table->costs.resize(graph_->num_edges());
    GlobalThreadPool().ParallelFor(n, [&](size_t i) {
      const uint32_t node = static_cast<uint32_t>(i);
      const auto out = graph_->Out(node);
      float* row = table->costs.data() + graph_->FirstEdge(node);
      for (size_t k = 0; k < out.size(); ++k) {
        row[k] = ComputeEdgeCost(node, out[k]);
      }
    });
  }

  // Phase 3: the gradient pieces of Eqs. (21)-(22), once per schema pair
  // (parallel; reads only the model).
  {
    obs::TraceSpan grads_span("infer.schema_gradients", "infer");
    table->schema_slots.assign(n, kInvalidId);
    std::vector<uint32_t> schema_nodes;
    for (uint32_t node = 0; node < n; ++node) {
      if (graph_->pool()[node].kind == ElementKind::kEntity) continue;
      table->schema_slots[node] = static_cast<uint32_t>(schema_nodes.size());
      schema_nodes.push_back(node);
    }
    table->schema_gradients.resize(schema_nodes.size());
    GlobalThreadPool().ParallelFor(schema_nodes.size(), [&](size_t slot) {
      table->schema_gradients[slot] =
          ComputeSchemaGradient(graph_->pool()[schema_nodes[slot]]);
    });
  }

  if (config_.auto_calibrate_costs) {
    std::vector<float> finite;
    for (float c : table->costs) {
      if (std::isfinite(c)) finite.push_back(c);
    }
    if (!finite.empty()) {
      const size_t idx = static_cast<size_t>(
          config_.calibration_percentile *
          static_cast<double>(finite.size() - 1));
      std::nth_element(finite.begin(),
                       finite.begin() + static_cast<ptrdiff_t>(idx),
                       finite.end());
      const float reference = std::max(finite[idx], 1e-4f);
      // Map the reference cost to power ~0.9 (cost 1/9).
      table->cost_scale = std::clamp((1.0f / 9.0f) / reference, 1e-3f, 1e3f);
      for (float& c : table->costs) {
        if (std::isfinite(c)) c *= table->cost_scale;
      }
    }
  }
}

float InferenceEngine::EdgeCost(uint32_t node, size_t edge_index) const {
  DAAKG_CHECK(table_ != nullptr);
  return table_->costs[graph_->FirstEdge(node) + edge_index];
}

PowerRow InferenceEngine::PowerFrom(uint32_t src, HopSearch* scratch) const {
  DAAKG_CHECK(table_ != nullptr);
  power_from_calls_->Increment();
  PowerRow out;
  const ElementPair& src_pair = graph_->pool()[src];
  const float max_cost =
      static_cast<float>(1.0 / config_.power_floor - 1.0) + 1e-6f;

  if (src_pair.kind == ElementKind::kEntity) {
    std::optional<HopSearch> local;
    HopSearch& search =
        scratch != nullptr ? *scratch : local.emplace(graph_->num_nodes());
    // --- path powers to entity pairs (Eq. 19), mu-hop bounded -------------
    search.Lower(src, 0.0f);
    search.Run(config_.max_hops, max_cost, [&](uint32_t node, auto&& relax) {
      const auto edges = graph_->Out(node);
      const float* costs = table_->costs.data() + graph_->FirstEdge(node);
      for (size_t k = 0; k < edges.size(); ++k) {
        if (std::isfinite(costs[k])) relax(edges[k].target, costs[k]);
      }
    });
    for (uint32_t node : search.touched()) {
      if (node == src) continue;
      const float power = 1.0f / (1.0f + search.cost(node));
      if (power > config_.power_floor) out.emplace_back(node, power);
    }
    search.Reset();

    // --- 1-hop gradient powers (Eqs. 21-22) --------------------------------
    // The strongest power per schema node, kept on the same scratch as its
    // least negation (gradient powers are never negative).
    for (const AlignmentGraph::Edge& e : graph_->Out(src)) {
      if (e.rel_pair == AlignmentGraph::kTypeLabel) {
        search.Lower(e.target,
                     -PowerEntityToClass(src_pair, graph_->pool()[e.target],
                                         *PrecomputedGradient(e.target)));
      } else {
        search.Lower(e.rel_pair,
                     -PowerEntityToRelation(
                         src_pair, graph_->pool()[e.rel_pair],
                         graph_->pool()[e.target],
                         *PrecomputedGradient(e.rel_pair)));
      }
    }
    for (uint32_t node : search.touched()) {
      const float power = -search.cost(node);
      if (power > config_.power_floor) out.emplace_back(node, power);
    }
    search.Reset();
    power_entries_->Increment(out.size());
    return out;
  }

  if (src_pair.kind == ElementKind::kRelation) {
    // Eq. (20): with (r, r') labeled a match, the relation-difference term
    // vanishes; inference reaches targets of edges labeled (r, r') whose
    // source entity pair is a likely match.
    std::unordered_map<uint32_t, float> target_power;
    for (const auto& [from, to] : graph_->EdgesOfRelationPair(src)) {
      if (model_->MatchProbability(graph_->pool()[from]) <
          config_.likely_match_prob) {
        continue;
      }
      // Locate the edge to read its d-components: recompute cost without
      // the relation term by subtracting it is not possible from the cached
      // scalar, so recompute the d-only cost directly.
      const ElementPair& sp = graph_->pool()[from];
      const ElementPair& tp = graph_->pool()[to];
      RelationId r1, r2;
      ResolveEdgeRelations(sp, tp, src_pair, &r1, &r2);
      const float d1 = BoundFor(1, sp.first, r1, tp.first);
      const float d2 = BoundFor(2, sp.second, r2, tp.second);
      // Same units as the path costs: the labeled relation match zeroes
      // the relation-difference term, leaving the weighted residuals.
      const float power =
          1.0f / (1.0f + table_->cost_scale * kResidualWeight * (d1 + d2));
      auto& slot = target_power[to];
      slot = std::max(slot, power);
    }
    for (const auto& [node, power] : target_power) {
      if (power > config_.power_floor) out.emplace_back(node, power);
    }
    power_entries_->Increment(out.size());
    return out;
  }

  // Class-pair sources: no outgoing inference defined (Sect. 5.2).
  return out;
}

InferenceEngine::OneHopCsr InferenceEngine::OneHopPowers() const {
  DAAKG_CHECK(table_ != nullptr);
  const size_t n = graph_->num_nodes();
  // The power of every edge first, in place of its entry (0 for edges of
  // non-entity sources, which have none), with each node's count of
  // positive ones at offsets[node + 1]; then one pass moves the kept
  // entries down to their CSR slots.
  OneHopCsr csr;
  csr.power.assign(graph_->num_edges(), 0.0f);
  csr.offsets.assign(n + 1, 0);
  GlobalThreadPool().ParallelFor(n, [&](size_t i) {
    const uint32_t node = static_cast<uint32_t>(i);
    const ElementPair& src = graph_->pool()[node];
    if (src.kind != ElementKind::kEntity) return;
    const auto edges = graph_->Out(node);
    const float* costs = table_->costs.data() + graph_->FirstEdge(node);
    float* power = csr.power.data() + graph_->FirstEdge(node);
    uint32_t kept = 0;
    for (size_t k = 0; k < edges.size(); ++k) {
      const AlignmentGraph::Edge& e = edges[k];
      power[k] = e.rel_pair == AlignmentGraph::kTypeLabel
                     ? PowerEntityToClass(src, graph_->pool()[e.target],
                                          *PrecomputedGradient(e.target))
                     : 1.0f / (1.0f + costs[k]);
      kept += power[k] > 0.0f;
    }
    csr.offsets[node + 1] = kept;
  });
  for (size_t node = 0; node < n; ++node) {
    csr.offsets[node + 1] += csr.offsets[node];
  }
  csr.target.resize(csr.offsets[n]);
  csr.label.resize(csr.offsets[n]);
  size_t at = 0;
  for (uint32_t node = 0; node < n; ++node) {
    const auto edges = graph_->Out(node);
    const size_t first = graph_->FirstEdge(node);
    for (size_t k = 0; k < edges.size(); ++k) {
      const float power = csr.power[first + k];
      if (!(power > 0.0f)) continue;
      csr.target[at] = edges[k].target;
      csr.label[at] = edges[k].rel_pair;
      csr.power[at] = power;  // at <= first + k
      ++at;
    }
  }
  csr.power.resize(at);
  return csr;
}

EdgeCostTable::SchemaGradient InferenceEngine::ComputeSchemaGradient(
    const ElementPair& schema_pair) const {
  // S(c, c') or S(r, r') through its mean-embedding branch.
  const bool is_class = schema_pair.kind == ElementKind::kClass;
  const uint32_t a = schema_pair.first;
  const uint32_t b = schema_pair.second;
  Vector u = model_->a_ent().Multiply(is_class ? model_->ClassMean1(a)
                                               : model_->RelationMean1(a));
  const Vector& v = is_class ? model_->ClassMean2(b) : model_->RelationMean2(b);
  SchemaGradient grad;
  Vector du;
  const float s_mean = Cosine(u, v, &du, &grad.dv);
  const float s_full =
      is_class ? model_->class_sim()(a, b) : model_->relation_sim()(a, b);
  grad.other_branch_wins = s_full > s_mean + 1e-6f;
  grad.a_ent_t_du = model_->a_ent().TransposeMultiply(du);
  return grad;
}

const EdgeCostTable::SchemaGradient* InferenceEngine::PrecomputedGradient(
    uint32_t node) const {
  if (table_ == nullptr) return nullptr;
  const uint32_t slot = table_->schema_slots[node];
  return slot == kInvalidId ? nullptr : &table_->schema_gradients[slot];
}

float InferenceEngine::PowerEntityToClass(const ElementPair& entity_pair,
                                          const ElementPair& class_pair) const {
  const uint32_t node = graph_->IndexOf(class_pair);
  const SchemaGradient* grad =
      node == kInvalidId ? nullptr : PrecomputedGradient(node);
  if (grad != nullptr) return PowerEntityToClass(entity_pair, class_pair, *grad);
  return PowerEntityToClass(entity_pair, class_pair,
                            ComputeSchemaGradient(class_pair));
}

float InferenceEngine::PowerEntityToClass(const ElementPair& entity_pair,
                                          const ElementPair& class_pair,
                                          const SchemaGradient& grad) const {
  // Eq. (21): || grad_{e, e'} S(c, c') ||, which is non-zero only through
  // the mean-embedding branch of S(c, c').
  const KnowledgeGraph& kg1 = graph_->task().kg1;
  const KnowledgeGraph& kg2 = graph_->task().kg2;
  const EntityId e1 = entity_pair.first;
  const EntityId e2 = entity_pair.second;
  const ClassId c1 = class_pair.first;
  const ClassId c2 = class_pair.second;
  const bool member1 = kg1.HasType(e1, c1);
  const bool member2 = kg2.HasType(e2, c2);
  if (!member1 && !member2) return 0.0f;
  if (grad.other_branch_wins) return 0.0f;

  double sq = 0.0;
  if (member1 && model_->ClassMeanWeightSum1(c1) > 0.0) {
    const float coef = model_->EntityWeight1(e1) /
                       static_cast<float>(model_->ClassMeanWeightSum1(c1));
    sq += ScaledSquaredNorm(grad.a_ent_t_du, coef);
  }
  if (member2 && model_->ClassMeanWeightSum2(c2) > 0.0) {
    const float coef = model_->EntityWeight2(e2) /
                       static_cast<float>(model_->ClassMeanWeightSum2(c2));
    sq += ScaledSquaredNorm(grad.dv, coef);
  }
  return std::min(1.0f, static_cast<float>(std::sqrt(sq)));
}

float InferenceEngine::PowerEntityToRelation(
    const ElementPair& entity_pair, const ElementPair& rel_pair,
    const ElementPair& target_pair) const {
  const uint32_t node = graph_->IndexOf(rel_pair);
  const SchemaGradient* grad =
      node == kInvalidId ? nullptr : PrecomputedGradient(node);
  if (grad != nullptr) {
    return PowerEntityToRelation(entity_pair, rel_pair, target_pair, *grad);
  }
  return PowerEntityToRelation(entity_pair, rel_pair, target_pair,
                               ComputeSchemaGradient(rel_pair));
}

float InferenceEngine::PowerEntityToRelation(
    const ElementPair& entity_pair, const ElementPair& rel_pair,
    const ElementPair& target_pair, const SchemaGradient& grad) const {
  // Eq. (22): || grad_{e''-e, e'''-e'} S(r, r') || through the
  // mean-embedding branch of S(r, r').
  if (grad.other_branch_wins) return 0.0f;
  const RelationId r1 = rel_pair.first;
  const RelationId r2 = rel_pair.second;
  double sq = 0.0;
  if (model_->RelationMeanWeightSum1(r1) > 0.0) {
    const float w = std::min(model_->EntityWeight1(entity_pair.first),
                             model_->EntityWeight1(target_pair.first));
    const float coef =
        w / static_cast<float>(model_->RelationMeanWeightSum1(r1));
    sq += ScaledSquaredNorm(grad.a_ent_t_du, coef);
  }
  if (model_->RelationMeanWeightSum2(r2) > 0.0) {
    const float w = std::min(model_->EntityWeight2(entity_pair.second),
                             model_->EntityWeight2(target_pair.second));
    const float coef =
        w / static_cast<float>(model_->RelationMeanWeightSum2(r2));
    sq += ScaledSquaredNorm(grad.dv, coef);
  }
  return std::min(1.0f, static_cast<float>(std::sqrt(sq)));
}

}  // namespace daakg

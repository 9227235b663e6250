#ifndef DAAKG_INFER_INFERENCE_POWER_H_
#define DAAKG_INFER_INFERENCE_POWER_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "align/joint_model.h"
#include "infer/alignment_graph.h"
#include "infer/hop_search.h"
#include "obs/metrics.h"

namespace daakg {

// Edge-cost composition (see InferenceEngine::ComputeEdgeCost): weights of
// the relation-difference term, the sampled residual bounds, and the
// per-parallel-edge alternative-entity penalty.
inline constexpr float kRelDiffWeight = 2.0f;
inline constexpr float kResidualWeight = 0.2f;
inline constexpr float kAltPenalty = 1.0f;

struct InferenceConfig {
  int max_hops = 5;        // mu: path length cap (Sect. 5.2)
  double kappa = 0.8;      // inference-power threshold of Eq. (23)
  double power_floor = 0.5;  // powers below this are not recorded
  int bound_samples = 3;   // m: SGD restarts in Eq. (14)
  // Probability above which a pool entity pair counts as a likely match
  // when evaluating Eq. (20) (relation-pair sources).
  double likely_match_prob = 0.5;
  // When true (default), path costs are rescaled after precomputation so
  // the finite edge cost at `calibration_percentile` (a fraction: the
  // default 0.02 is the 2nd percentile) reaches power ~0.9. The paper's absolute
  // kappa = 0.8 presumes fully converged GPU-scale embeddings whose score
  // residuals approach 0; CPU-scale training leaves a constant residual
  // floor, so the *ranking* of bounds is meaningful but the absolute scale
  // must be calibrated (see DESIGN.md).
  bool auto_calibrate_costs = true;
  double calibration_percentile = 0.02;
  // Seeds the per-triplet streams of the sampled edge bounds (Eq. 14).
  uint64_t seed = 41;

  bool operator==(const InferenceConfig&) const = default;
};

// What InferenceEngine::PrecomputeEdgeCosts() computes. It is a function of
// the pool, the KG pair, the config and the model's caches alone, so one
// table serves every engine over an equal pool until the model's caches are
// recomputed: the model's planning slot (JointAlignmentModel::pool_cache())
// keeps the last one built, and engines share it read-only.
struct EdgeCostTable {
  // The parts of Eqs. (21)-(22) that depend only on the schema pair
  // (c, c') or (r, r'): with u = A_ent mean1 and v = mean2, the gradients
  // du, dv of S_mean = cos(u, v). The entity-pair terms only scale them.
  struct SchemaGradient {
    // S(.,.) > S_mean + 1e-6: the max() is won by the other branch, so the
    // entity gradient is zero.
    bool other_branch_wins = false;
    Vector a_ent_t_du;  // A_ent^T du
    Vector dv;
  };
  static constexpr float kNotEstimated = -1.0f;

  // What the table was built for.
  std::vector<ElementPair> pool;
  const KnowledgeGraph* kg1 = nullptr;
  const KnowledgeGraph* kg2 = nullptr;
  InferenceConfig config;

  // Cost of the k-th outgoing edge of `node` at
  // costs[graph.FirstEdge(node) + k], parallel to the graph's edges.
  std::vector<float> costs;
  float cost_scale = 1.0f;  // see InferenceConfig::auto_calibrate_costs
  // bounds1[i] / bounds2[i] is the bound of the KG1 / KG2 triplet with
  // TripletIndex i, or kNotEstimated.
  std::vector<float> bounds1;
  std::vector<float> bounds2;
  // schema_slots[node] indexes schema_gradients, or is kInvalidId.
  std::vector<uint32_t> schema_slots;
  std::vector<SchemaGradient> schema_gradients;
};

// A sparse row of inference powers: (pool node index, I(q'|q)).
using PowerRow = std::vector<std::pair<uint32_t, float>>;

// The alternative-entity slack term of Eq. (15): each parallel edge beyond
// the first adds one unit of slack. Counts are clamped per side, so a
// resolved (possibly reverse) relation with zero parallel edges contributes
// nothing instead of wrapping the unsigned subtraction to ~1.8e19.
float AlternativeEntitySlack(size_t parallel_edges1, size_t parallel_edges2);

// Computes the structure-based and gradient-based inference powers of
// Sect. 5.2 on top of an alignment graph and a trained joint model.
//
// Path-based powers (entity pair -> entity pair, Eqs. 13-19) use per-edge
// costs and a mu-hop bounded shortest-path search. The paper's edge cost
// is ||A_rel r~ - r~'|| + d + d' (Eq. 15); ComputeEdgeCost instead uses
//
//   c = kRelDiffWeight * (1 - S(r, r')) + kResidualWeight * (d + d')
//       + kAltPenalty * (parallel edges beyond the first, per side),
//
// with S the joint model's relation similarity of the base relations and
// d, d' the sampled edge bounds (Eq. 14). Path cost is the sum of edge
// costs. The paper norms the summed difference vectors (Eq. 19); a sum of
// per-edge norms would upper-bound that, but with the substituted edge
// cost the reported power is not proven to be a lower bound of the
// paper's — see DESIGN.md.
class InferenceEngine {
 public:
  // All pointees must outlive the engine; `model` must have fresh caches.
  InferenceEngine(const AlignmentGraph* graph, const JointAlignmentModel* model,
                  const InferenceConfig& config);

  const AlignmentGraph& graph() const { return *graph_; }
  const JointAlignmentModel* model() const { return model_; }
  const InferenceConfig& config() const { return config_; }

  // Precomputes every relational edge's cost. First estimates, in
  // parallel, the bound of every KG triplet an edge resolves to, once per
  // distinct (side, triplet), each from its own RNG stream seeded by
  // config.seed, the side and the triplet (so no bound depends on the
  // visiting order or the thread count); then computes costs in parallel
  // against the now read-only bounds, and the gradient pieces of
  // Eqs. (21)-(22) once per schema pair of the pool. Must be called before
  // any power query except the two gradient-based powers below.
  //
  // The result is an EdgeCostTable. When the model's planning slot holds
  // one built for an equal pool, the same KG pair and an equal config, the
  // engine adopts it instead of building its own; otherwise it builds one
  // and leaves it in the slot. daakg.infer.edge_cost_builds counts builds.
  void PrecomputeEdgeCosts();
  // The table of the last PrecomputeEdgeCosts(), or null before it.
  const EdgeCostTable* edge_costs() const { return table_.get(); }

  // Cost of the k-th outgoing edge of `node` (kTypeLabel edges have no
  // path cost and return +inf).
  float EdgeCost(uint32_t node, size_t edge_index) const;

  // I(q'|q) for all pool pairs q' with power > power_floor, for a
  // hypothetical newly-labeled match at pool node `src`:
  //  * entity-pair source: mu-hop path powers to entity pairs (Eq. 19)
  //    plus 1-hop gradient powers to class pairs (Eq. 21) and to incident
  //    relation pairs (Eq. 22);
  //  * relation-pair source: Eq. (20) over edges labeled by it whose
  //    source entity pair is a likely match;
  //  * class-pair source: none (the paper defines no outgoing inference
  //    from class pairs).
  // Entity sources search on `scratch` (sized graph().num_nodes(), left
  // reset) when given, on a fresh one otherwise; callers that query many
  // sources keep one per thread. Row order is unspecified.
  PowerRow PowerFrom(uint32_t src, HopSearch* scratch = nullptr) const;

  // The 1-hop powers of every pool node, one entry per outgoing
  // alignment-graph edge with positive power, as one CSR: entries
  // [offsets[q], offsets[q + 1]) are node q's, in edge order, each with its
  // target, its relation-pair label (kTypeLabel for type edges) and the
  // 1-hop power along it: 1/(1+cost) along relational edges, the gradient
  // power (Eq. 21) along type edges. Only entity pairs have entries. Used by
  // the graph-partitioning selection (Algorithm 2).
  struct OneHopCsr {
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> target;
    std::vector<uint32_t> label;
    std::vector<float> power;
  };
  OneHopCsr OneHopPowers() const;

  // Gradient-based powers, exposed for tests and the Table 6 bench. After
  // PrecomputeEdgeCosts a schema pair of the pool reads its precomputed
  // gradient pieces; any other pair computes them on the spot, with the
  // same result.
  float PowerEntityToClass(const ElementPair& entity_pair,
                           const ElementPair& class_pair) const;  // Eq. 21
  float PowerEntityToRelation(const ElementPair& entity_pair,
                              const ElementPair& rel_pair,
                              const ElementPair& target_pair) const;  // Eq. 22

 private:
  using SchemaGradient = EdgeCostTable::SchemaGradient;
  // Builds the table of this engine's graph into `table`, which table_
  // already points to.
  void BuildEdgeCosts(EdgeCostTable* table);
  // Computes the pieces for a relation or class pair from the model.
  SchemaGradient ComputeSchemaGradient(const ElementPair& schema_pair) const;
  // The precomputed gradient of pool node `node`, or nullptr when it has
  // none (not precomputed yet, or not a schema pair).
  const SchemaGradient* PrecomputedGradient(uint32_t node) const;
  // Eqs. (21) and (22) from the pair's pieces.
  float PowerEntityToClass(const ElementPair& entity_pair,
                           const ElementPair& class_pair,
                           const SchemaGradient& grad) const;
  float PowerEntityToRelation(const ElementPair& entity_pair,
                              const ElementPair& rel_pair,
                              const ElementPair& target_pair,
                              const SchemaGradient& grad) const;
  // Resolves the actual (possibly reverse) relations behind the labeled
  // relation pair `rel` of an edge src -> dst.
  void ResolveEdgeRelations(const ElementPair& src, const ElementPair& dst,
                            const ElementPair& rel, RelationId* r1,
                            RelationId* r2) const;
  // Estimates the bound d of Eq. (14) for one KG triplet into `bounds`
  // unless another call claimed it first (`claimed` and `bounds` are
  // parallel to the KG's triplets). Safe to call concurrently: each bound is
  // written by the one call that claims it.
  void EstimateBound(int side, EntityId head, RelationId rel, EntityId tail,
                     std::vector<std::atomic<bool>>* claimed,
                     std::vector<float>* bounds) const;
  // Read-only bound lookup; DAAKG_CHECK-fails on a triplet that
  // PrecomputeEdgeCosts did not estimate. PowerFrom and ComputeEdgeCost run
  // under ParallelFor, so this must never mutate.
  float BoundFor(int side, EntityId head, RelationId rel, EntityId tail) const;
  float ComputeEdgeCost(uint32_t node, const AlignmentGraph::Edge& edge) const;

  const AlignmentGraph* graph_;
  const JointAlignmentModel* model_;
  InferenceConfig config_;

  // Metric handles hoisted at construction: PowerFrom() runs inside
  // ParallelFor, so the registry's registration mutex must stay off the
  // per-call path.
  obs::Counter* power_from_calls_;
  obs::Counter* power_entries_;

  // Set by PrecomputeEdgeCosts, read-only afterwards; shared with the
  // planning slot and every engine that adopted it.
  std::shared_ptr<const EdgeCostTable> table_;
};

}  // namespace daakg

#endif  // DAAKG_INFER_INFERENCE_POWER_H_

#ifndef DAAKG_ALIGN_JOINT_MODEL_H_
#define DAAKG_ALIGN_JOINT_MODEL_H_

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "embedding/entity_class_model.h"
#include "embedding/kge_model.h"
#include "kg/alignment_task.h"
#include "tensor/matrix.h"
#include "tensor/topk.h"

namespace daakg {

// Hyper-parameters of the joint alignment model (Sect. 4.2). The fixed
// training details (learning rate, negatives, loss sharpness, L2 pull) are
// constants in joint_model.cc.
struct JointAlignConfig {
  // Joint training rounds: each round interleaves one KGE epoch per KG with
  // `joint_epochs_per_round` alignment epochs, so the embedding spaces
  // co-evolve with the mapping (Sect. 4.2's joint training).
  int align_epochs = 150;
  int joint_epochs_per_round = 3;
  double tau = 0.9;            // semi-supervision similarity threshold
  bool semi_supervised = true;  // false disables it (Table 5)
  double z_ent = 0.05;         // calibration temperatures (Sect. 7.1)
  double z_rel = 0.1;
  double z_cls = 0.1;
  double focal_gamma = 2.0;    // focal-loss focus (fine-tuning)
  bool use_mean_embeddings = true;   // Table 5 ablation switch
};

struct EdgeCostTable;  // infer/inference_power.h
struct PartitionPlan;  // active/selection.cc

// Planning data derived from one generation of the model's caches: the
// candidate pool's unit schema signatures and the last pool cut from them
// (Sect. 6.1), and the label-independent state of a planning round over a
// pool (DESIGN.md §8). PoolGenerator, InferenceEngine and PartitionSelect
// fill it lazily; every caller of the generation shares it. `mu` guards
// every field.
struct PoolCache {
  std::mutex mu;
  Matrix sig1;                  // unit KG1 signatures
  Matrix sig2;                  // unit KG2 signatures
  std::optional<size_t> top_n;  // the top-N `pool` was cut at
  std::vector<ElementPair> pool;
  // The edge costs of the last InferenceEngine::PrecomputeEdgeCosts() that
  // built them, with the pool, KG pair and config they were built for.
  std::shared_ptr<const EdgeCostTable> edge_costs;
  // Algorithm 2's label-independent state over `edge_costs`, one per rho;
  // replacing `edge_costs` clears it.
  std::vector<std::pair<double, std::shared_ptr<PartitionPlan>>> partitions;
};

// The embedding-based joint alignment model (Fig. 3): learnable mapping
// matrices A_ent / A_rel / A_cls plus the similarity functions
//
//   S(e, e') = cos(A_ent e, e')                                     (Eq. 4)
//   S(r, r') = max(cos(A_rel r, r'), cos(A_ent rbar, rbar'))
//   S(c, c') = max(cos(A_cls c, c'), cos(A_ent cbar, cbar'))
//
// with dangling-aware entity weights (Eq. 6), weighted relation mean
// embeddings (Eq. 7) and class mean embeddings (Eq. 9). Relations and
// classes are the two schema kinds: one training step (Eq. 8 and its class
// analogue), one semi-supervised step and one similarity definition serve
// both, over a per-kind SchemaKind descriptor.
//
// RefreshCaches() keeps the unit-normalized entity rows of both sides
// (O((|E1| + |E2|) dim) memory) and streams their cosines once for the row
// and column maxima (Eq. 6) and log-sum-exps (Eqs. 11-12); the |E1| x |E2|
// entity similarity matrix is never stored. Entity consumers (calibration,
// mining, evaluation, matching) score cells from the unit rows through the
// blocked kernels (the streaming producers of align/metrics.h). The
// schema-sized relation and class similarity matrices are cached densely.
class JointAlignmentModel {
 public:
  // `ec1`/`ec2` may be null ("w/o class embeddings" ablation: class
  // similarity then falls back to mean embeddings only). All pointees must
  // outlive the model.
  JointAlignmentModel(KgeModel* model1, KgeModel* model2,
                      EntityClassModel* ec1, EntityClassModel* ec2,
                      const JointAlignConfig& config);

  void Init(Rng* rng);

  // Version of the mapping matrices A_ent / A_rel / A_cls: Init, TrainEpoch
  // and TrainSemiEpoch increment it.
  uint64_t version() const { return version_; }

  const JointAlignConfig& config() const { return config_; }
  const KnowledgeGraph& kg1() const { return model1_->kg(); }
  const KnowledgeGraph& kg2() const { return model2_->kg(); }
  const KgeModel* kg1_model() const { return model1_; }
  const KgeModel* kg2_model() const { return model2_; }

  // S(e, e') computed fresh from the current parameters. Schema
  // similarities are read from relation_sim() / class_sim().
  float EntitySim(EntityId e1, EntityId e2) const;

  // --- caches -------------------------------------------------------------
  // Brings the caches up to date with the parameters: entity
  // representations and their unit rows, entity weights (Eq. 6),
  // relation/class mean embeddings (Eqs. 7, 9), the schema similarity
  // matrices and the calibration log-sum-exps. The caches are keyed on the
  // parameter versions of this model, both KGE models and both
  // entity-class models: when none has changed since the last
  // recomputation, the call returns at once. A recomputation is one
  // parallel O(|E1| |E2| dim) pass over the entity cosines; nothing
  // quadratic is stored. daakg.align.refresh_caches_calls counts
  // recomputations only; the gauge daakg.align.nonfinite_rows holds the
  // last one's count of non-finite unit rows and schema similarity cells.
  void RefreshCaches();
  // True when the caches were computed from the current parameters.
  bool caches_ready() const { return cached_versions_ == ParamVersions(); }

  // The planning slot of the current caches (pool, edge costs, Algorithm
  // 2's partitions), created empty on the first call after a recomputation
  // and shared by every caller until the next one, which releases it.
  // Requires caches_ready(); thread-safe.
  std::shared_ptr<PoolCache> pool_cache() const;

  const Matrix& relation_sim() const { return rel_sim_; }
  const Matrix& class_sim() const { return cls_sim_; }

  // Row r of unit_mapped1() is the unit-normalized mapped KG1 entity row
  // A_ent e_r, row c of unit_repr2() the unit-normalized KG2 entity row, as
  // of the last RefreshCaches(); their dot products are the entity cosines.
  // The blocked kernels stream the entity similarity matrix from the two
  // without materializing it.
  const Matrix& unit_mapped1() const { return unit1_; }
  const Matrix& unit_repr2() const { return unit2_; }
  // Row (KG1) and column (KG2) maxima and log-sum-exps (temperature z_ent)
  // of the entity cosines, from the last RefreshCaches().
  const SimStats& entity_stats() const { return ent_stats_; }

  float EntityWeight1(EntityId e1) const { return weight1_[e1]; }
  float EntityWeight2(EntityId e2) const { return weight2_[e2]; }

  // Mapped / raw representations used by the inference-power module.
  Vector MappedEntityRepr1(EntityId e1) const;
  Vector EntityRepr2(EntityId e2) const;

  const Matrix& a_ent() const { return a_ent_; }
  const Matrix& a_rel() const { return a_rel_; }
  const Matrix& a_cls() const { return a_cls_; }

  // Weighted relation mean embedding rbar (Eq. 7) / class mean embedding
  // cbar (Eq. 9); valid after RefreshCaches().
  const Vector& RelationMean1(RelationId r) const { return rel_mean1_[r]; }
  const Vector& RelationMean2(RelationId r) const { return rel_mean2_[r]; }
  const Vector& ClassMean1(ClassId c) const { return cls_mean1_[c]; }
  const Vector& ClassMean2(ClassId c) const { return cls_mean2_[c]; }

  // Total weights behind the weighted means — the denominators of Eqs. (7)
  // and (9); the gradient-based inference powers (Eqs. 21-22) need them.
  double RelationMeanWeightSum1(RelationId r) const { return rel_wsum1_[r]; }
  double RelationMeanWeightSum2(RelationId r) const { return rel_wsum2_[r]; }
  double ClassMeanWeightSum1(ClassId c) const { return cls_wsum1_[c]; }
  double ClassMeanWeightSum2(ClassId c) const { return cls_wsum2_[c]; }

  // --- probability calibration (Eqs. 11-12) -------------------------------
  // min(Pr[x'|x], Pr[x|x']) under temperature-scaled softmax over the
  // similarity rows/columns: the pair's cosine against the cached
  // log-sum-exps.
  double MatchProbability(const ElementPair& pair) const;

  // --- training ------------------------------------------------------------
  // One epoch of supervised alignment training over the seed matches
  // (Eqs. 5, 8 and the class analogue). With `focal`, the focal-loss
  // variant is used (fine-tuning). Returns the mean loss.
  double TrainEpoch(const SeedAlignment& seed, Rng* rng, bool focal);

  // Semi-supervision (Eq. 10): mines element pairs with similarity > tau
  // as of the last RefreshCaches(), resolves one-to-one conflicts by score,
  // and returns them with their soft labels S0.
  std::vector<std::pair<ElementPair, double>> MineSemiSupervision() const;

  // One epoch over mined semi-supervised pairs: ascends S0 * S(x, x')
  // through the embedding branch of each pair's similarity.
  void TrainSemiEpoch(
      const std::vector<std::pair<ElementPair, double>>& semi, Rng* rng);

 private:
  // Per-step buffers of one training path, sized at construction to the
  // entity dimension (entities, relations) or the class dimension
  // (classes): the training steps and AscendPairSimilarity keep every
  // vector they need here.
  struct StepNeg {
    uint32_t n1;
    uint32_t n2;
    Vector x1;        // repr of a corrupted KG1 side
    Vector y;         // repr of a corrupted KG2 side, or A x1
    Vector d_mapped;  // Cosine() gradients: d sim / d (A x), d sim / d y
    Vector d_second;
    bool corrupt_second;  // n2 corrupted (n1 is the match's, repr x1)
  };
  struct StepBuffers {
    explicit StepBuffers(size_t dim);
    Vector x1, u, v;  // repr of the KG1 side, A x1, repr of the KG2 side
    Vector d_mapped, d_second;
    Vector gx, gy, diff;
    std::vector<StepNeg> negs;  // kNumNegatives
    std::vector<double> s_negs;
    std::vector<EntityId> cands;  // kHardNegativeCandidates (entities)
    std::vector<float> cand_sims;
  };

  // Applies one contrastive step for an entity match; returns the loss.
  double TrainEntityPair(EntityId e1, EntityId e2, Rng* rng, bool focal,
                         float lr);
  // One SGD step with coefficient `coef` on an entity pair's cosine
  // gradient: A_ent -= lr coef d_mapped xa^T, then KG1 entity a descends
  // coef A_ent^T d_mapped, KG2 entity b coef d_second.
  void ApplyEntityGrad(EntityId a, EntityId b, const Vector& d_mapped,
                       const Vector& d_second, const Vector& xa, float coef,
                       float lr);

  // What the schema step needs of one schema kind: relations compare the
  // KGE relation representations through A_rel, classes the entity-class
  // centers through A_cls. The representation getters and backprop hooks
  // are empty for classes without entity-class models; the schema step
  // then does nothing and S(c, c') is the mean branch alone.
  struct SchemaKind {
    Matrix* a;
    StepBuffers* step;  // rel_step_ or cls_step_
    size_t n1;  // elements of KG1 / KG2
    size_t n2;
    std::function<Vector(uint32_t)> repr1;
    std::function<Vector(uint32_t)> repr2;
    std::function<void(uint32_t, const Vector&, float)> backprop1;
    std::function<void(uint32_t, const Vector&, float)> backprop2;
  };
  // The descriptor of kRelation or kClass.
  SchemaKind Schema(ElementKind kind);
  // Applies one contrastive step for a relation or class match; returns
  // the loss (0 without representations).
  double TrainSchemaPair(const SchemaKind& k, uint32_t first,
                         uint32_t second, Rng* rng, bool focal, float lr);
  // One SGD step with coefficient `coef` on a schema pair's cosine
  // gradient: A -= lr coef d_mapped xa^T, then KG1 element a descends
  // coef A^T d_mapped (through the updated A), KG2 element b coef d_second.
  void ApplySchemaGrad(const SchemaKind& k, uint32_t a, uint32_t b,
                       const Vector& d_mapped, const Vector& d_second,
                       const Vector& xa, float coef, float lr);

  // Gradient ascent on a single pair's similarity with weight `w` (the
  // semi-supervised objective of Eq. 10).
  void AscendPairSimilarity(const ElementPair& pair, double weight, float lr);

  // Entity representations, unit rows, the streamed entity statistics and
  // the Eq. 6 weights derived from them.
  void ComputeEntityStats();
  void ComputeMeanEmbeddings();
  void ComputeSchemaSimMatrices();

  // The versions of every parameter the caches read: this model's, both
  // KGE models' and both entity-class models' (0 for an absent one).
  std::array<uint64_t, 5> ParamVersions() const;

  // Refreshes the per-epoch representation snapshot used only to *pick*
  // hard negatives (exact gradients are still computed on fresh
  // representations). Avoids re-encoding GNN entities per candidate.
  void RefreshMiningSnapshot();

  KgeModel* model1_;
  KgeModel* model2_;
  EntityClassModel* ec1_;
  EntityClassModel* ec2_;
  JointAlignConfig config_;

  Matrix a_ent_;  // dim x dim
  Matrix a_rel_;  // dim x dim
  Matrix a_cls_;  // class_dim x class_dim
  uint64_t version_ = 0;

  // Caches, valid while caches_ready(): computed from the parameters of
  // cached_versions_ (none yet when empty).
  std::optional<std::array<uint64_t, 5>> cached_versions_;
  Matrix repr1_;     // |E1| x dim
  Matrix repr2_;     // |E2| x dim
  Matrix unit1_;     // |E1| x dim  unit-normalized A_ent * repr1
  Matrix unit2_;     // |E2| x dim  unit-normalized repr2
  Matrix rel_sim_;   // base relations only
  Matrix cls_sim_;
  std::vector<float> weight1_;  // Eq. 6
  std::vector<float> weight2_;
  std::vector<Vector> rel_mean1_;  // Eq. 7, base relations
  std::vector<Vector> rel_mean2_;
  std::vector<Vector> cls_mean1_;  // Eq. 9
  std::vector<Vector> cls_mean2_;
  std::vector<double> rel_wsum1_, rel_wsum2_;
  std::vector<double> cls_wsum1_, cls_wsum2_;
  // The planning slot of cached_versions_ (none yet when null);
  // RefreshCaches() releases it when it recomputes.
  mutable std::mutex pool_cache_mu_;
  mutable std::shared_ptr<PoolCache> pool_cache_;
  // Stale per-epoch snapshots for hard-negative mining, with row norms.
  Matrix mining_mapped1_;  // A_ent * repr1 at epoch start
  Matrix mining_repr2_;
  std::vector<float> mining_norm1_;
  std::vector<float> mining_norm2_;

  // The entity path allocates nothing; the schema paths only what their
  // representation getters return.
  StepBuffers entity_step_;
  StepBuffers rel_step_;
  StepBuffers cls_step_;
  // Row (1->2) and column (2->1) maxima and log-sum-exps for Eq. 11.
  SimStats ent_stats_, rel_stats_, cls_stats_;
};

}  // namespace daakg

#endif  // DAAKG_ALIGN_JOINT_MODEL_H_

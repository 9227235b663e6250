#ifndef DAAKG_EMBEDDING_KGE_MODEL_H_
#define DAAKG_EMBEDDING_KGE_MODEL_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"
#include "kg/knowledge_graph.h"
#include "tensor/matrix.h"
#include "tensor/vector.h"

namespace daakg {

// The entity-relation embedding geometries this library implements
// (paper Sect. 4.1).
enum class KgeModelKind {
  kTransE,
  kRotatE,
  kCompGcn,
};

// Parses a config-file model name ("transe", "rotate", "compgcn";
// case-sensitive). Unknown names yield InvalidArgumentError.
StatusOr<KgeModelKind> ParseKgeModelKind(std::string_view name);

// Canonical config-file spelling of `kind`.
std::string_view KgeModelKindToString(KgeModelKind kind);

// Hyper-parameters shared by the entity-relation embedding models. Paper
// defaults (Sect. 7.1), scaled-down dimensions for CPU training.
struct KgeConfig {
  size_t dim = 64;        // entity & relation embedding dimension
  size_t class_dim = 16;  // entity-class subspace dimension (paper: 50)
  float margin_er = 1.0f;  // lambda_er in Eq. (1)
  float margin_ec = 1.0f;  // lambda_ec in Eq. (3)
  int epochs = 20;  // warm-start epochs before joint training
  uint64_t seed = 13;
  // CompGCN only: neighbors sampled into the aggregation per entity.
  size_t max_neighbors = 12;
};

// Base class of the entity-relation embedding models (TransE, RotatE,
// CompGCN). Implements shared parameter storage (one row per entity /
// relation); subclasses define the scoring geometry f_er and its analytic
// gradients.
//
// Contract (paper Sect. 4.1): for a triplet (h, r, t) in the KG,
// Score(h,r,t) ~ 0; for corrupted triplets, Score > 0. Scores are
// non-negative distances.
class KgeModel {
 public:
  KgeModel(const KnowledgeGraph* kg, const KgeConfig& config);
  virtual ~KgeModel() = default;

  KgeModel(const KgeModel&) = delete;
  KgeModel& operator=(const KgeModel&) = delete;

  virtual std::string name() const = 0;

  const KnowledgeGraph& kg() const { return *kg_; }
  const KgeConfig& config() const { return config_; }
  size_t dim() const { return config_.dim; }

  // Parameter version: every non-const call that can change a parameter
  // increments it (Init, TrainPair, the Backprop hooks, the normalizers,
  // mutable_entities() / mutable_relations() when called, and CompGCN's
  // aggregation refresh; CompGCN's weights count as parameters). An
  // unchanged version means unchanged parameters, so caches derived from
  // them are still valid.
  uint64_t version() const { return version_; }

  // Randomly initializes all parameters.
  virtual void Init(Rng* rng);

  // Distance-style score f_er(h, r, t) >= 0.
  virtual float Score(EntityId head, RelationId relation,
                      EntityId tail) const = 0;

  // One SGD step on the margin-ranking pair: descends
  //   |margin + f(pos) - f(pos with corrupted tail)|_+        (Eq. 1)
  // and returns the pre-step loss value.
  virtual float TrainPair(const Triplet& pos, EntityId negative_tail,
                          float lr) = 0;

  // Hook called by the trainer at every epoch start (CompGCN refreshes its
  // neighborhood aggregation here).
  virtual void OnEpochStart() {}

  // Representation of an entity used by the alignment model. For geometric
  // models this is the base embedding; CompGCN returns the GNN-encoded
  // vector.
  Vector EntityRepr(EntityId e) const;
  // EntityRepr(e) written into `out` (dim() floats, not model storage).
  virtual void EntityReprInto(EntityId e, float* out) const;

  // Representation of a relation used by the alignment model.
  virtual Vector RelationRepr(RelationId r) const;

  // Chain-rule hooks for gradients arriving at the alignment-facing
  // representations (EntityRepr / RelationRepr): apply one SGD step to the
  // underlying parameters. Defaults update the base embedding rows
  // directly; CompGCN routes entity gradients through W_self, RotatE routes
  // relation gradients through the (cos, sin) parameterization.
  virtual void BackpropEntityRepr(EntityId e, const Vector& grad, float lr);
  virtual void BackpropRelationRepr(RelationId r, const Vector& grad,
                                    float lr);

  // The local-optimum relation vector for an edge (h, ?, t): the r~
  // minimizing f_er(h, r, t) over r, expressed in entity space (Eq. 7 uses
  // a weighted mean of these).
  virtual Vector LocalOptimumRelation(EntityId head, EntityId tail) const = 0;

  // Estimates the difference vector r~ and error bound d of Eqs. (13)-(14)
  // for the edge (head, relation, tail): the tail embedding satisfies
  // ||t - (h + r~)|| <= d. For exact-geometry models (TransE) d == 0; deep
  // models sample `num_samples` SGD solutions (Eq. 14).
  virtual void EstimateEdgeBound(EntityId head, RelationId relation,
                                 EntityId tail, int num_samples, Rng* rng,
                                 Vector* r_tilde, float* d) const = 0;

  // --- raw parameter access (used by the entity-class model and the
  // --- alignment model, which co-train entity embeddings) ---------------
  const Matrix& entities() const { return entities_; }
  Matrix* mutable_entities() {
    BumpVersion();
    return &entities_;
  }
  const Matrix& relations() const { return relations_; }
  Matrix* mutable_relations() {
    BumpVersion();
    return &relations_;
  }

  Vector EntityVec(EntityId e) const { return entities_.Row(e); }

  // Renormalizes entity embeddings onto the unit ball (called by the
  // trainer between epochs; standard for translational models).
  void NormalizeEntities();

  // Bounds relation parameters between epochs. Margin-ranking losses
  // otherwise inflate relation norms (a larger ||r|| widens the pos/neg
  // score gap for free), which wrecks the geometric bounds of Sect. 5.
  // Default: clip relation rows to norm <= 2 (the diameter of the entity
  // ball); RotatE instead wraps its phases into [-pi, pi].
  virtual void NormalizeRelations();

 protected:
  // Called by every mutator, before or while it writes a parameter.
  void BumpVersion() { ++version_; }

  const KnowledgeGraph* kg_;
  KgeConfig config_;
  Matrix entities_;   // num_entities x dim
  Matrix relations_;  // num_relations x dim (incl. reverse relations)

 private:
  // Bumped at every training step; on its own cache line for the reason
  // given at EntityClassModel::version_.
  alignas(64) uint64_t version_ = 0;
};

// Factory by model kind. Never fails for a valid enumerator; an
// out-of-range value (e.g. from a blind cast) returns nullptr rather than
// aborting.
std::unique_ptr<KgeModel> MakeKgeModel(KgeModelKind kind,
                                       const KnowledgeGraph* kg,
                                       const KgeConfig& config);

}  // namespace daakg

#endif  // DAAKG_EMBEDDING_KGE_MODEL_H_

#ifndef DAAKG_EMBEDDING_ENTITY_CLASS_MODEL_H_
#define DAAKG_EMBEDDING_ENTITY_CLASS_MODEL_H_

#include "embedding/kge_model.h"
#include "kg/knowledge_graph.h"
#include "tensor/matrix.h"
#include "tensor/vector.h"

namespace daakg {

// The entity-class scoring function of Eq. (2):
//
//   f_ec(e, c) = || W_c FFNN(e) - b_c ||,
//
// instantiated with a shared linear projection FFNN(e) = P e (d_e -> d_c)
// and a *diagonal* per-class W_c (a scale vector w_c), matching the paper's
// stated parameter complexity of O(|C| d_c) per class plus d_e d_c for the
// projection. The zero entries of w_c span a free subspace, which is what
// lets many entities satisfy f_ec(e, c) ~ 0 simultaneously (the
// "many-to-one" resolution of Sect. 4.1).
//
// The model reads and writes the entity table of the KgeModel it is
// attached to, so entity-class training shapes the same embeddings the
// entity-relation model trains (joint embedding).
class EntityClassModel {
 public:
  // `kge` must outlive this model.
  EntityClassModel(KgeModel* kge, const KgeConfig& config);

  void Init(Rng* rng);

  const KnowledgeGraph& kg() const { return kge_->kg(); }
  size_t class_dim() const { return config_.class_dim; }

  // Version of this model's own parameters (projection, scales, centers):
  // Init, TrainPair and BackpropClassRepr increment it. TrainPair also
  // writes the KGE entity table, which bumps the KgeModel's version.
  uint64_t version() const { return version_; }

  // f_ec(e, c) >= 0; ~0 when e plausibly belongs to c.
  float Score(EntityId e, ClassId c) const;

  // One SGD step on |margin_ec + f_ec(pos_entity, c) - f_ec(neg_entity, c)|_+
  // (Eq. 3). Returns the pre-step loss.
  float TrainPair(EntityId pos_entity, EntityId neg_entity, ClassId c,
                  float lr);

  // The class representation compared by the alignment model: the subspace
  // center b_c.
  Vector ClassRepr(ClassId c) const { return centers_.Row(c); }

  // One SGD step on a gradient arriving at ClassRepr(c) from the alignment
  // loss.
  void BackpropClassRepr(ClassId c, const Vector& grad, float lr) {
    ++version_;
    centers_.RowAxpy(c, -lr, grad);
  }

  const Matrix& projection() const { return projection_; }
  const Matrix& scales() const { return scales_; }
  const Matrix& centers() const { return centers_; }

 private:
  // FFNN(e): projects the (current) base embedding of e.
  Vector Project(EntityId e) const;

  // TrainPair's per-step buffers (class_dim-sized p, z and g_p; dim-sized
  // g_e), allocated once: a model is trained from one thread at a time.
  struct StepScratch {
    Vector p_pos, p_neg, z_pos, z_neg, gp_pos, gp_neg;
    Vector ge_pos, ge_neg;
  };

  KgeModel* kge_;
  KgeConfig config_;
  Matrix projection_;  // class_dim x dim
  Matrix scales_;      // num_classes x class_dim   (w_c, diagonal of W_c)
  Matrix centers_;     // num_classes x class_dim   (b_c)
  StepScratch scratch_;
  // TrainPair bumps the version at every step while the other KG's model
  // trains on another thread (TrainSideBySide); its own cache line keeps
  // those writes from stalling reads of a neighbouring object.
  alignas(64) uint64_t version_ = 0;
};

}  // namespace daakg

#endif  // DAAKG_EMBEDDING_ENTITY_CLASS_MODEL_H_

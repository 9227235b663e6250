#ifndef DAAKG_EMBEDDING_COMPGCN_H_
#define DAAKG_EMBEDDING_COMPGCN_H_

#include <string>
#include <vector>

#include "embedding/kge_model.h"

namespace daakg {

// A single-layer composition-based GNN in the spirit of CompGCN (Vashishth
// et al., 2020), with the subtraction composition operator:
//
//   enc(e) = W_self * e  +  W_nbr * m_e,
//   m_e    = mean over sampled neighbors (r, t) of (t - r),
//   f_er(h, r, t) = || enc(h) + r - enc(t) ||_2.
//
// Two deliberate simplifications versus the full model, both documented in
// DESIGN.md: the encoder is linear (no activation), and the neighborhood
// aggregation m_e is refreshed once per epoch and treated as a constant
// during backpropagation ("stale aggregation"), so gradients flow to the
// entity's own embedding, the relation embeddings and the two weight
// matrices but not through neighbors. This keeps CPU training tractable
// while preserving what the paper exploits: entity representations that mix
// in neighborhood structure.
class CompGcn : public KgeModel {
 public:
  CompGcn(const KnowledgeGraph* kg, const KgeConfig& config);

  std::string name() const override { return "compgcn"; }

  void Init(Rng* rng) override;
  void OnEpochStart() override { RefreshAggregation(); }

  float Score(EntityId head, RelationId relation,
              EntityId tail) const override;

  float TrainPair(const Triplet& pos, EntityId negative_tail,
                  float lr) override;

  // The GNN-encoded representation (what the alignment model compares).
  void EntityReprInto(EntityId e, float* out) const override;

  // Routes a gradient on the encoded representation into the base
  // embedding via W_self^T (stale aggregation: no neighbor gradients).
  void BackpropEntityRepr(EntityId e, const Vector& grad, float lr) override;

  Vector LocalOptimumRelation(EntityId head, EntityId tail) const override;

  void EstimateEdgeBound(EntityId head, RelationId relation, EntityId tail,
                         int num_samples, Rng* rng, Vector* r_tilde,
                         float* d) const override;

  // Recomputes every entity's neighborhood message m_e by sampling up to
  // config().max_neighbors neighbors. Called per epoch; also needed after
  // external edits to the embedding tables.
  void RefreshAggregation();

  const Matrix& w_self() const { return w_self_; }
  const Matrix& w_nbr() const { return w_nbr_; }

 private:
  Vector Encode(EntityId e) const;
  // Encoded vector for an arbitrary base embedding at entity slot `e`
  // (uses e's cached message); used by the bound estimator.
  Vector EncodeBase(const Vector& base, EntityId e) const;
  // W_self base + W_nbr m_e into `out` (dim() floats, aliasing neither).
  void EncodeInto(const float* base, EntityId e, float* out) const;

  Matrix w_self_;
  Matrix w_nbr_;
  Matrix messages_;  // num_entities x dim, refreshed per epoch
  Rng sample_rng_;   // used only for neighbor sampling in RefreshAggregation
};

}  // namespace daakg

#endif  // DAAKG_EMBEDDING_COMPGCN_H_

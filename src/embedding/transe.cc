#include "embedding/transe.h"

#include <cmath>

#include "tensor/simd/simd.h"

namespace daakg {

float TransE::Score(EntityId head, RelationId relation, EntityId tail) const {
  // The residual h + r - t is two axpy passes; 1 * r and -1 * t are exact,
  // so each element is the float h + r - t, and its norm through dot is bit
  // for bit the distance simd::Ops::transe_step takes in TrainPair. A
  // buffer per call: the edge-bound pass scores from several threads.
  const simd::Ops& ops = simd::ActiveOps();
  Vector res = entities_.Row(head);
  ops.axpy(1.0f, relations_.RowData(relation), res.data(), config_.dim);
  ops.axpy(-1.0f, entities_.RowData(tail), res.data(), config_.dim);
  return std::sqrt(ops.dot(res.data(), res.data(), config_.dim));
}

float TransE::TrainPair(const Triplet& pos, EntityId negative_tail, float lr) {
  BumpVersion();
  // One fused kernel call: both distances as Score takes them, the loss,
  // and the steps on h, r, t, t' in that order (simd::Ops::transe_step).
  return simd::ActiveOps().transe_step(
      entities_.RowData(pos.head), relations_.RowData(pos.relation),
      entities_.RowData(pos.tail), entities_.RowData(negative_tail),
      config_.dim, config_.margin_er, lr);
}

Vector TransE::LocalOptimumRelation(EntityId head, EntityId tail) const {
  Vector out(config_.dim);
  const float* h = entities_.RowData(head);
  const float* t = entities_.RowData(tail);
  for (size_t i = 0; i < config_.dim; ++i) out[i] = t[i] - h[i];
  return out;
}

void TransE::EstimateEdgeBound(EntityId head, RelationId relation,
                               EntityId tail, int /*num_samples*/,
                               Rng* /*rng*/, Vector* r_tilde,
                               float* d) const {
  *r_tilde = relations_.Row(relation);
  *d = Score(head, relation, tail);
}

}  // namespace daakg

#include "embedding/transe.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd/simd.h"

namespace daakg {
namespace {
constexpr float kEps = 1e-8f;

// ||h + r - t||: writes the residual h + r - t into `res` and takes its norm
// through simd::Ops::dot, so Score and TrainPair share one definition. The
// residual is two axpy passes; 1 * r and -1 * t are exact, so each element
// is the float h + r - t.
float Distance(const simd::Ops& ops, const float* h, const float* r,
               const float* t, size_t dim, float* res) {
  std::copy(h, h + dim, res);
  ops.axpy(1.0f, r, res, dim);
  ops.axpy(-1.0f, t, res, dim);
  return std::sqrt(ops.dot(res, res, dim));
}
}  // namespace

float TransE::Score(EntityId head, RelationId relation, EntityId tail) const {
  // Own buffer, not TrainPair's scratch: the edge-bound pass scores from
  // several threads at once.
  Vector res(config_.dim);
  return Distance(simd::ActiveOps(), entities_.RowData(head),
                  relations_.RowData(relation), entities_.RowData(tail),
                  config_.dim, res.data());
}

float TransE::TrainPair(const Triplet& pos, EntityId negative_tail, float lr) {
  BumpVersion();
  const simd::Ops& ops = simd::ActiveOps();
  const size_t dim = config_.dim;
  float* h = entities_.RowData(pos.head);
  float* r = relations_.RowData(pos.relation);
  float* t = entities_.RowData(pos.tail);
  float* tn = entities_.RowData(negative_tail);
  float* g_pos = scratch_.res_pos.data();
  float* g_neg = scratch_.res_neg.data();
  float* g_h = scratch_.g_h.data();
  const float f_pos = Distance(ops, h, r, t, dim, g_pos);
  const float f_neg = Distance(ops, h, r, tn, dim, g_neg);
  const float loss = config_.margin_er + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;

  // d f_pos/d(h,r) = g_pos = res_pos / f_pos, d f_pos/d t = -g_pos; the
  // negative term enters with opposite sign. The steps go in the order
  // h, r, t, t', so a row that is both head and tail sees them in turn.
  ops.scale(g_pos, dim, 1.0f / (f_pos + kEps));
  ops.scale(g_neg, dim, 1.0f / (f_neg + kEps));
  std::copy(g_pos, g_pos + dim, g_h);
  ops.axpy(-1.0f, g_neg, g_h, dim);
  ops.axpy(-lr, g_h, h, dim);
  ops.axpy(-lr, g_h, r, dim);
  ops.axpy(lr, g_pos, t, dim);
  ops.axpy(-lr, g_neg, tn, dim);
  return loss;
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

#include "embedding/transe.h"

#include <cmath>

namespace daakg {
namespace {
constexpr float kEps = 1e-8f;
}  // namespace

float TransE::Score(EntityId head, RelationId relation, EntityId tail) const {
  const float* h = entities_.RowData(head);
  const float* r = relations_.RowData(relation);
  const float* t = entities_.RowData(tail);
  double sq = 0.0;
  for (size_t i = 0; i < config_.dim; ++i) {
    double diff = static_cast<double>(h[i]) + r[i] - t[i];
    sq += diff * diff;
  }
  return static_cast<float>(std::sqrt(sq));
}

float TransE::TrainPair(const Triplet& pos, EntityId negative_tail, float lr) {
  BumpVersion();
  float* h = entities_.RowData(pos.head);
  float* r = relations_.RowData(pos.relation);
  float* t = entities_.RowData(pos.tail);
  float* tn = entities_.RowData(negative_tail);

  // Score() of both triplets in one pass: two independent accumulators,
  // each summing in Score()'s order.
  double sq_pos = 0.0;
  double sq_neg = 0.0;
  for (size_t i = 0; i < config_.dim; ++i) {
    const double hr = static_cast<double>(h[i]) + r[i];
    const double diff_pos = hr - t[i];
    const double diff_neg = hr - tn[i];
    sq_pos += diff_pos * diff_pos;
    sq_neg += diff_neg * diff_neg;
  }
  const float f_pos = static_cast<float>(std::sqrt(sq_pos));
  const float f_neg = static_cast<float>(std::sqrt(sq_neg));
  const float loss = config_.margin_er + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;

  const float inv_pos = 1.0f / (f_pos + kEps);
  const float inv_neg = 1.0f / (f_neg + kEps);
  for (size_t i = 0; i < config_.dim; ++i) {
    // d f_pos/d(h,r) = g_pos, d f_pos/d t = -g_pos; the negative term enters
    // with opposite sign.
    const float g_pos = (h[i] + r[i] - t[i]) * inv_pos;
    const float g_neg = (h[i] + r[i] - tn[i]) * inv_neg;
    const float gh = g_pos - g_neg;
    h[i] -= lr * gh;
    r[i] -= lr * gh;
    t[i] -= lr * (-g_pos);
    tn[i] -= lr * g_neg;
  }
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

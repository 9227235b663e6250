#include "embedding/entity_class_model.h"

#include <cmath>

#include "tensor/simd/simd.h"

namespace daakg {
namespace {
constexpr float kEps = 1e-8f;
}  // namespace

EntityClassModel::EntityClassModel(KgeModel* kge, const KgeConfig& config)
    : kge_(kge),
      config_(config),
      projection_(config.class_dim, config.dim),
      scales_(kge->kg().num_classes(), config.class_dim),
      centers_(kge->kg().num_classes(), config.class_dim) {
  for (Vector* v : {&scratch_.p_pos, &scratch_.p_neg, &scratch_.z_pos,
                    &scratch_.z_neg, &scratch_.gp_pos, &scratch_.gp_neg}) {
    v->Resize(config.class_dim);
  }
  scratch_.ge_pos.Resize(config.dim);
  scratch_.ge_neg.Resize(config.dim);
}

void EntityClassModel::Init(Rng* rng) {
  ++version_;
  projection_.InitXavier(rng);
  scales_.Fill(1.0f);
  // Small noise so classes start distinguishable.
  Matrix noise(scales_.rows(), scales_.cols());
  noise.InitGaussian(rng, 0.1f);
  scales_ += noise;
  centers_.InitGaussian(rng, 0.1f);
}

Vector EntityClassModel::Project(EntityId e) const {
  return projection_.Multiply(kge_->EntityVec(e));
}

float EntityClassModel::Score(EntityId e, ClassId c) const {
  Vector p = Project(e);
  const float* w = scales_.RowData(c);
  const float* b = centers_.RowData(c);
  double sq = 0.0;
  for (size_t i = 0; i < config_.class_dim; ++i) {
    double z = static_cast<double>(w[i]) * p[i] - b[i];
    sq += z * z;
  }
  return static_cast<float>(std::sqrt(sq));
}

float EntityClassModel::TrainPair(EntityId pos_entity, EntityId neg_entity,
                                  ClassId c, float lr) {
  ++version_;
  Matrix* entities = kge_->mutable_entities();
  // Pre-step base embeddings: no entity row changes before the last use.
  const float* base_pos = entities->RowData(pos_entity);
  const float* base_neg = entities->RowData(neg_entity);
  StepScratch& s = scratch_;
  projection_.MultiplyInto(base_pos, s.p_pos.data());
  projection_.MultiplyInto(base_neg, s.p_neg.data());
  float* w = scales_.RowData(c);
  float* b = centers_.RowData(c);

  double sq_pos = 0.0;
  double sq_neg = 0.0;
  for (size_t i = 0; i < config_.class_dim; ++i) {
    s.z_pos[i] = w[i] * s.p_pos[i] - b[i];
    s.z_neg[i] = w[i] * s.p_neg[i] - b[i];
    sq_pos += static_cast<double>(s.z_pos[i]) * s.z_pos[i];
    sq_neg += static_cast<double>(s.z_neg[i]) * s.z_neg[i];
  }
  const float f_pos = static_cast<float>(std::sqrt(sq_pos));
  const float f_neg = static_cast<float>(std::sqrt(sq_neg));
  const float loss = config_.margin_ec + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;

  // Gradients of loss = f_pos - f_neg (+ margin), with unit residuals
  // u = z / f:
  //   d/d w_i = u_pos_i p_pos_i - u_neg_i p_neg_i
  //   d/d b_i = -u_pos_i + u_neg_i
  //   d/d p   = u (.) w       (then chain into projection and entity)
  const float inv_pos = 1.0f / (f_pos + kEps);
  const float inv_neg = 1.0f / (f_neg + kEps);
  for (size_t i = 0; i < config_.class_dim; ++i) {
    const float u_pos = s.z_pos[i] * inv_pos;
    const float u_neg = s.z_neg[i] * inv_neg;
    const float gw = u_pos * s.p_pos[i] - u_neg * s.p_neg[i];
    const float gb = -u_pos + u_neg;
    s.gp_pos[i] = u_pos * w[i];
    s.gp_neg[i] = -u_neg * w[i];
    w[i] -= lr * gw;
    b[i] -= lr * gb;
  }

  // One pass over the projection rows. Entity gradients g_e = P^T g_p are
  // read off P before its step; the step d loss / d P = g_p e^T (both
  // terms) then updates the row. Per element this keeps the order of
  // computing both P^T products before both outer-product steps.
  const size_t dim = projection_.cols();
  s.ge_pos.SetZero();
  s.ge_neg.SetZero();
  const simd::Ops& ops = simd::ActiveOps();
  for (size_t r = 0; r < config_.class_dim; ++r) {
    float* row = projection_.RowData(r);
    const float gp = s.gp_pos[r];
    const float gn = s.gp_neg[r];
    if (gp != 0.0f) ops.axpy(gp, row, s.ge_pos.data(), dim);
    if (gn != 0.0f) ops.axpy(gn, row, s.ge_neg.data(), dim);
    const float ap = -lr * gp;
    if (ap != 0.0f) ops.axpy(ap, base_pos, row, dim);
    const float an = -lr * gn;
    if (an != 0.0f) ops.axpy(an, base_neg, row, dim);
  }
  entities->RowAxpy(pos_entity, -lr, s.ge_pos);
  entities->RowAxpy(neg_entity, -lr, s.ge_neg);
  return loss;
}

}  // namespace daakg

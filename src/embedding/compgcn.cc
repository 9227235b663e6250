#include "embedding/compgcn.h"

#include <algorithm>
#include <cmath>

namespace daakg {
namespace {
constexpr float kEps = 1e-8f;
constexpr int kBoundSgdSteps = 25;
constexpr float kBoundSgdLr = 0.2f;
// The weight matrices receive an outer-product update from every training
// pair (thousands per epoch), so their effective learning rate must be far
// below the per-row embedding rate or they drift and destabilize the
// encoded space.
constexpr float kMatrixLrScale = 0.02f;
}  // namespace

CompGcn::CompGcn(const KnowledgeGraph* kg, const KgeConfig& config)
    : KgeModel(kg, config),
      w_self_(config.dim, config.dim),
      w_nbr_(config.dim, config.dim),
      messages_(kg->num_entities(), config.dim),
      sample_rng_(config.seed ^ 0xC0FFEEULL) {}

void CompGcn::Init(Rng* rng) {
  KgeModel::Init(rng);
  // Start near the identity so early training behaves like TransE and the
  // GNN mixing is learned on top.
  w_self_.SetIdentity();
  Matrix noise(config_.dim, config_.dim);
  noise.InitGaussian(rng, 0.02f);
  w_self_ += noise;
  w_nbr_.InitGaussian(rng, 0.05f);
  RefreshAggregation();
}

void CompGcn::RefreshAggregation() {
  BumpVersion();
  const size_t cap = config_.max_neighbors;
  for (size_t e = 0; e < kg_->num_entities(); ++e) {
    const auto& nbrs = kg_->Neighbors(static_cast<EntityId>(e));
    float* msg = messages_.RowData(e);
    std::fill(msg, msg + config_.dim, 0.0f);
    if (nbrs.empty()) continue;
    const size_t take = std::min(cap, nbrs.size());
    for (size_t k = 0; k < take; ++k) {
      // Sample without replacement when truncating; plain scan otherwise.
      const auto& nb = (take == nbrs.size())
                           ? nbrs[k]
                           : nbrs[sample_rng_.NextUint64(nbrs.size())];
      const float* t = entities_.RowData(nb.tail);
      const float* r = relations_.RowData(nb.relation);
      for (size_t i = 0; i < config_.dim; ++i) msg[i] += t[i] - r[i];
    }
    const float inv = 1.0f / static_cast<float>(take);
    for (size_t i = 0; i < config_.dim; ++i) msg[i] *= inv;
  }
}

Vector CompGcn::Encode(EntityId e) const {
  Vector enc(config_.dim);
  EncodeInto(entities_.RowData(e), e, enc.data());
  return enc;
}

Vector CompGcn::EncodeBase(const Vector& base, EntityId e) const {
  Vector enc(config_.dim);
  EncodeInto(base.data(), e, enc.data());
  return enc;
}

void CompGcn::EncodeInto(const float* base, EntityId e, float* out) const {
  // Both matrix-vector products row by row, their two dot products side by
  // side; each sums in column order, in double, as Matrix::Multiply does.
  const float* msg = messages_.RowData(e);
  for (size_t r = 0; r < config_.dim; ++r) {
    const float* ws = w_self_.RowData(r);
    const float* wn = w_nbr_.RowData(r);
    double acc_self = 0.0;
    double acc_nbr = 0.0;
    for (size_t c = 0; c < config_.dim; ++c) {
      acc_self += static_cast<double>(ws[c]) * base[c];
      acc_nbr += static_cast<double>(wn[c]) * msg[c];
    }
    out[r] = static_cast<float>(acc_self) + static_cast<float>(acc_nbr);
  }
}

float CompGcn::Score(EntityId head, RelationId relation, EntityId tail) const {
  Vector eh = Encode(head);
  Vector et = Encode(tail);
  const float* r = relations_.RowData(relation);
  double sq = 0.0;
  for (size_t i = 0; i < config_.dim; ++i) {
    double diff = static_cast<double>(eh[i]) + r[i] - et[i];
    sq += diff * diff;
  }
  return static_cast<float>(std::sqrt(sq));
}

float CompGcn::TrainPair(const Triplet& pos, EntityId negative_tail,
                         float lr) {
  BumpVersion();
  Vector eh = Encode(pos.head);
  Vector et = Encode(pos.tail);
  Vector etn = Encode(negative_tail);
  const float* r = relations_.RowData(pos.relation);

  Vector diff_pos(config_.dim);
  Vector diff_neg(config_.dim);
  double sq_pos = 0.0;
  double sq_neg = 0.0;
  for (size_t i = 0; i < config_.dim; ++i) {
    diff_pos[i] = eh[i] + r[i] - et[i];
    diff_neg[i] = eh[i] + r[i] - etn[i];
    sq_pos += static_cast<double>(diff_pos[i]) * diff_pos[i];
    sq_neg += static_cast<double>(diff_neg[i]) * diff_neg[i];
  }
  const float f_pos = static_cast<float>(std::sqrt(sq_pos));
  const float f_neg = static_cast<float>(std::sqrt(sq_neg));
  const float loss = config_.margin_er + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;

  // Unit residuals: g_pos = diff_pos / f_pos, g_neg = diff_neg / f_neg.
  diff_pos *= 1.0f / (f_pos + kEps);
  diff_neg *= 1.0f / (f_neg + kEps);

  // d loss / d enc(h) = g_pos - g_neg; d loss / d enc(t) = -g_pos;
  // d loss / d enc(tn) = +g_neg; d loss / d r = g_pos - g_neg.
  Vector g_h = diff_pos - diff_neg;

  // Relation update.
  float* r_mut = relations_.RowData(pos.relation);
  for (size_t i = 0; i < config_.dim; ++i) r_mut[i] -= lr * g_h[i];

  // Snapshot bases before any update so all gradients are taken at the
  // same point.
  Vector base_h = entities_.Row(pos.head);
  Vector base_t = entities_.Row(pos.tail);
  Vector base_tn = entities_.Row(negative_tail);
  const float wlr = lr * kMatrixLrScale;

  // Base entity updates through the linear encoder: d enc / d base = W_self.
  Vector gb_h = w_self_.TransposeMultiply(g_h);
  Vector gb_t = w_self_.TransposeMultiply(diff_pos);   // note: -g_pos => +
  Vector gb_tn = w_self_.TransposeMultiply(diff_neg);  // +g_neg => -
  entities_.RowAxpy(pos.head, -lr, gb_h);
  entities_.RowAxpy(pos.tail, lr, gb_t);
  entities_.RowAxpy(negative_tail, -lr, gb_tn);

  // Weight matrix updates. d loss / d W_self = g_h h^T - g_pos t^T + g_neg tn^T
  // (with base embeddings); d loss / d W_nbr analogous with messages.
  w_self_.AddOuter(-wlr, g_h, base_h);
  w_self_.AddOuter(wlr, diff_pos, base_t);
  w_self_.AddOuter(-wlr, diff_neg, base_tn);

  Vector msg_h = messages_.Row(pos.head);
  Vector msg_t = messages_.Row(pos.tail);
  Vector msg_tn = messages_.Row(negative_tail);
  w_nbr_.AddOuter(-wlr, g_h, msg_h);
  w_nbr_.AddOuter(wlr, diff_pos, msg_t);
  w_nbr_.AddOuter(-wlr, diff_neg, msg_tn);

  return loss;
}

void CompGcn::EntityReprInto(EntityId e, float* out) const {
  EncodeInto(entities_.RowData(e), e, out);
}

void CompGcn::BackpropEntityRepr(EntityId e, const Vector& grad, float lr) {
  BumpVersion();
  Vector base_grad = w_self_.TransposeMultiply(grad);
  entities_.RowAxpy(e, -lr, base_grad);
}

Vector CompGcn::LocalOptimumRelation(EntityId head, EntityId tail) const {
  Vector eh = Encode(head);
  Vector et = Encode(tail);
  return et - eh;
}

void CompGcn::EstimateEdgeBound(EntityId head, RelationId relation,
                                EntityId tail, int num_samples, Rng* rng,
                                Vector* r_tilde, float* d) const {
  if (num_samples < 1) num_samples = 1;
  // Solve min over base(t) of ||enc(h) + r - EncodeBase(base, t)|| from
  // random starts (Eq. 14). Gradient wrt base is -W_self^T diff / f.
  Vector eh = Encode(head);
  Vector target = eh + relations_.Row(relation);  // desired enc(t)
  std::vector<Vector> encoded_solutions;
  encoded_solutions.reserve(static_cast<size_t>(num_samples));
  for (int m = 0; m < num_samples; ++m) {
    Vector base(config_.dim);
    base.InitGaussian(rng, 0.5f);
    for (int step = 0; step < kBoundSgdSteps; ++step) {
      Vector enc = EncodeBase(base, tail);
      Vector diff = target - enc;  // = -(enc - target)
      float f = diff.Norm() + kEps;
      Vector grad = w_self_.TransposeMultiply(diff);
      base.Axpy(kBoundSgdLr / f, grad);
    }
    encoded_solutions.push_back(EncodeBase(base, tail));
  }
  Vector mean(config_.dim);
  for (const Vector& s : encoded_solutions) mean += s;
  mean /= static_cast<float>(encoded_solutions.size());
  float max_dist = 0.0f;
  for (const Vector& s : encoded_solutions) {
    max_dist = std::max(max_dist, EuclideanDistance(s, mean));
  }
  // r~ lives in the encoded space, consistent with EntityRepr().
  *r_tilde = mean - eh;
  *d = max_dist;
}

}  // namespace daakg

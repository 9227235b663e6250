#include "embedding/rotate.h"

#include <cmath>

namespace daakg {
namespace {
constexpr float kEps = 1e-8f;
constexpr int kBoundSgdSteps = 25;
constexpr float kBoundSgdLr = 0.3f;
}  // namespace

RotatE::RotatE(const KnowledgeGraph* kg, const KgeConfig& config)
    : KgeModel(kg, config), half_dim_(config.dim / 2) {
  DAAKG_CHECK_EQ(config.dim % 2, 0u);
}

void RotatE::Init(Rng* rng) {
  BumpVersion();
  entities_.InitXavier(rng);
  NormalizeEntities();
  // Phases uniform in [-pi, pi).
  for (size_t r = 0; r < relations_.rows(); ++r) {
    float* row = relations_.RowData(r);
    for (size_t k = 0; k < half_dim_; ++k) {
      row[k] = static_cast<float>(rng->NextDouble(-M_PI, M_PI));
    }
    for (size_t k = half_dim_; k < config_.dim; ++k) row[k] = 0.0f;
  }
}

void RotatE::NormalizeRelations() {
  BumpVersion();
  for (size_t r = 0; r < relations_.rows(); ++r) {
    float* ph = relations_.RowData(r);
    for (size_t k = 0; k < half_dim_; ++k) {
      ph[k] = std::remainder(ph[k], static_cast<float>(2.0 * M_PI));
    }
  }
}

float RotatE::Score(EntityId head, RelationId relation, EntityId tail) const {
  const float* h = entities_.RowData(head);
  const float* ph = relations_.RowData(relation);
  const float* t = entities_.RowData(tail);
  double sq = 0.0;
  for (size_t k = 0; k < half_dim_; ++k) {
    const float c = std::cos(ph[k]);
    const float s = std::sin(ph[k]);
    const float hr_re = h[2 * k] * c - h[2 * k + 1] * s;
    const float hr_im = h[2 * k] * s + h[2 * k + 1] * c;
    const double dre = static_cast<double>(hr_re) - t[2 * k];
    const double dim_ = static_cast<double>(hr_im) - t[2 * k + 1];
    sq += dre * dre + dim_ * dim_;
  }
  return static_cast<float>(std::sqrt(sq));
}

float RotatE::TrainPair(const Triplet& pos, EntityId negative_tail, float lr) {
  BumpVersion();
  float* h = entities_.RowData(pos.head);
  float* ph = relations_.RowData(pos.relation);
  float* t = entities_.RowData(pos.tail);
  float* tn = entities_.RowData(negative_tail);

  // Score() of both triplets in one pass: one rotation of h, two
  // independent accumulators, each summing in Score()'s order.
  double sq_pos = 0.0;
  double sq_neg = 0.0;
  for (size_t k = 0; k < half_dim_; ++k) {
    const float c = std::cos(ph[k]);
    const float s = std::sin(ph[k]);
    const float hr_re = h[2 * k] * c - h[2 * k + 1] * s;
    const float hr_im = h[2 * k] * s + h[2 * k + 1] * c;
    const double pre = static_cast<double>(hr_re) - t[2 * k];
    const double pim = static_cast<double>(hr_im) - t[2 * k + 1];
    const double nre = static_cast<double>(hr_re) - tn[2 * k];
    const double nim = static_cast<double>(hr_im) - tn[2 * k + 1];
    sq_pos += pre * pre + pim * pim;
    sq_neg += nre * nre + nim * nim;
  }
  const float f_pos = static_cast<float>(std::sqrt(sq_pos));
  const float f_neg = static_cast<float>(std::sqrt(sq_neg));
  const float loss = config_.margin_er + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;
  const float inv_pos = 1.0f / (f_pos + kEps);
  const float inv_neg = 1.0f / (f_neg + kEps);

  for (size_t k = 0; k < half_dim_; ++k) {
    const float c = std::cos(ph[k]);
    const float s = std::sin(ph[k]);
    const float h_re = h[2 * k];
    const float h_im = h[2 * k + 1];
    const float hr_re = h_re * c - h_im * s;
    const float hr_im = h_re * s + h_im * c;

    // Positive-term residuals (towards true tail) and negative-term
    // residuals (away from corrupted tail).
    const float pre = (hr_re - t[2 * k]) * inv_pos;
    const float pim = (hr_im - t[2 * k + 1]) * inv_pos;
    const float nre = (hr_re - tn[2 * k]) * inv_neg;
    const float nim = (hr_im - tn[2 * k + 1]) * inv_neg;
    const float dre = pre - nre;  // d loss / d hr_re
    const float dim_ = pim - nim;

    // Chain rule through the rotation.
    const float gh_re = dre * c + dim_ * s;
    const float gh_im = -dre * s + dim_ * c;
    // d hr / d theta = (-h_re s - h_im c, h_re c - h_im s).
    const float gtheta = dre * (-h_re * s - h_im * c) + dim_ * (h_re * c - h_im * s);

    h[2 * k] -= lr * gh_re;
    h[2 * k + 1] -= lr * gh_im;
    ph[k] -= lr * gtheta;
    t[2 * k] -= lr * (-pre);
    t[2 * k + 1] -= lr * (-pim);
    tn[2 * k] -= lr * nre;
    tn[2 * k + 1] -= lr * nim;
  }
  return loss;
}

Vector RotatE::RelationRepr(RelationId r) const {
  Vector out(config_.dim);
  const float* ph = relations_.RowData(r);
  for (size_t k = 0; k < half_dim_; ++k) {
    out[2 * k] = std::cos(ph[k]);
    out[2 * k + 1] = std::sin(ph[k]);
  }
  return out;
}

void RotatE::BackpropRelationRepr(RelationId r, const Vector& grad,
                                  float lr) {
  BumpVersion();
  // repr_k = (cos theta_k, sin theta_k); d repr / d theta = (-sin, cos).
  float* ph = relations_.RowData(r);
  for (size_t k = 0; k < half_dim_; ++k) {
    const float c = std::cos(ph[k]);
    const float s = std::sin(ph[k]);
    const float g = grad[2 * k] * (-s) + grad[2 * k + 1] * c;
    ph[k] -= lr * g;
  }
}

Vector RotatE::LocalOptimumRelation(EntityId head, EntityId tail) const {
  Vector out(config_.dim);
  const float* h = entities_.RowData(head);
  const float* t = entities_.RowData(tail);
  for (size_t i = 0; i < config_.dim; ++i) out[i] = t[i] - h[i];
  return out;
}

void RotatE::EstimateEdgeBound(EntityId head, RelationId relation,
                               EntityId /*tail*/, int num_samples, Rng* rng,
                               Vector* r_tilde, float* d) const {
  // SGD solutions of min over t of f_er(h, r, t) from random starts
  // (Eq. 14). The objective is convex in t (distance to h o r), so the
  // spread d reflects how far `kBoundSgdSteps` steps get from random
  // initializations — finite-step uncertainty, as in the paper.
  if (num_samples < 1) num_samples = 1;
  std::vector<Vector> solutions;
  solutions.reserve(static_cast<size_t>(num_samples));
  const float* h = entities_.RowData(head);
  const float* ph = relations_.RowData(relation);
  Vector hr(config_.dim);
  for (size_t k = 0; k < half_dim_; ++k) {
    const float c = std::cos(ph[k]);
    const float s = std::sin(ph[k]);
    hr[2 * k] = h[2 * k] * c - h[2 * k + 1] * s;
    hr[2 * k + 1] = h[2 * k] * s + h[2 * k + 1] * c;
  }
  for (int m = 0; m < num_samples; ++m) {
    Vector x(config_.dim);
    x.InitGaussian(rng, 0.5f);
    for (int step = 0; step < kBoundSgdSteps; ++step) {
      // grad of ||hr - x|| wrt x is -(hr - x)/f; descend.
      Vector diff = hr - x;
      float f = diff.Norm() + kEps;
      x.Axpy(kBoundSgdLr / f, diff);
    }
    solutions.push_back(std::move(x));
  }
  Vector mean(config_.dim);
  for (const Vector& s : solutions) mean += s;
  mean /= static_cast<float>(solutions.size());
  float max_dist = 0.0f;
  for (const Vector& s : solutions) {
    max_dist = std::max(max_dist, EuclideanDistance(s, mean));
  }
  Vector rt(config_.dim);
  for (size_t i = 0; i < config_.dim; ++i) rt[i] = mean[i] - h[i];
  *r_tilde = std::move(rt);
  *d = max_dist;
}

}  // namespace daakg

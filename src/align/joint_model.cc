#include "align/joint_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "align/losses.h"
#include "align/metrics.h"
#include "common/thread_pool.h"
#include "index/candidate_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"
#include "tensor/topk.h"

namespace daakg {
namespace {
constexpr float kNormEps = 1e-12f;

constexpr float kAlignLr = 0.05f;
constexpr int kNumNegatives = 10;  // negatives per labeled match
// Hard-negative mining (normalized hard sample mining of Dual-AMN): each
// entity negative is the most similar of this many uniform candidates.
constexpr int kHardNegativeCandidates = 12;
constexpr double kLossSharpness = 10.0;  // cosine -> logit scale, Eqs. (5), (8)
// Weight of the auxiliary MTransE-style L2 pull ||A_ent e - e'||^2 on
// labeled entity matches. The contrastive loss shapes *directions*; the
// L2 term co-locates matches in absolute position, which is what lets
// rotation-based geometries (RotatE) propagate alignment to neighbors.
constexpr float kL2PullWeight = 0.3f;
constexpr double kSemiLrScale = 0.5;  // semi terms get a reduced learning rate

// Vector::Norm() of a span: squares summed in double, in order.
float SpanNorm(const float* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]) * x[i];
  return std::sqrt(static_cast<float>(acc));
}

// Cosine(q, rows.Row(ids[j])) into out[j] for j < n, given Norm(q) and the
// rows' norms. The dot products are simd::Ops::dot's, four rows at a time
// through dot4 (bitwise the same cells).
void SnapshotCosines(const float* q, float q_norm, const Matrix& rows,
                     const std::vector<float>& row_norms, const EntityId* ids,
                     size_t n, float* out) {
  const simd::Ops& ops = simd::ActiveOps();
  const size_t dim = rows.cols();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    ops.dot4(q, rows.RowData(ids[j]), rows.RowData(ids[j + 1]),
             rows.RowData(ids[j + 2]), rows.RowData(ids[j + 3]), dim, out + j);
  }
  for (; j < n; ++j) out[j] = ops.dot(q, rows.RowData(ids[j]), dim);
  for (j = 0; j < n; ++j) {
    const float nr = row_norms[ids[j]];
    out[j] = (q_norm == 0.0f || nr == 0.0f) ? 0.0f : out[j] / (q_norm * nr);
  }
}

// Rows of `m` that hold a non-finite value.
size_t NonFiniteRows(const Matrix& m) {
  size_t bad = 0;
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.RowData(r);
    bad += !std::all_of(row, row + m.cols(),
                        [](float x) { return std::isfinite(x); });
  }
  return bad;
}

// Cells of `m` that are not finite.
size_t NonFiniteCells(const Matrix& m) {
  size_t bad = 0;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) bad += !std::isfinite(m(r, c));
  }
  return bad;
}

}  // namespace

JointAlignmentModel::JointAlignmentModel(KgeModel* model1, KgeModel* model2,
                                         EntityClassModel* ec1,
                                         EntityClassModel* ec2,
                                         const JointAlignConfig& config)
    : model1_(model1),
      model2_(model2),
      ec1_(ec1),
      ec2_(ec2),
      config_(config) {
  DAAKG_CHECK_EQ(model1->dim(), model2->dim());
  const size_t dim = model1->dim();
  a_ent_ = Matrix(dim, dim);
  a_rel_ = Matrix(dim, dim);
  const size_t cdim =
      ec1_ != nullptr ? ec1_->class_dim() : model1->config().class_dim;
  a_cls_ = Matrix(cdim, cdim);

  EntityStep& s = entity_step_;
  for (Vector* v : {&s.x1, &s.u, &s.v, &s.d_mapped, &s.d_second, &s.gx, &s.gy,
                    &s.diff}) {
    v->Resize(dim);
  }
  const size_t num_negs = static_cast<size_t>(kNumNegatives);
  s.negs.assign(num_negs, EntityNeg{0, 0, Vector(dim), Vector(dim),
                                    Vector(dim), Vector(dim), false});
  s.s_negs.assign(num_negs, 0.0);
  s.cands.assign(static_cast<size_t>(kHardNegativeCandidates), 0);
  s.cand_sims.assign(s.cands.size(), 0.0f);
}

void JointAlignmentModel::Init(Rng* rng) {
  ++version_;
  // Identity + noise: similar embedding spaces start roughly aligned and
  // training refines the map.
  a_ent_.SetIdentity();
  a_rel_.SetIdentity();
  a_cls_.SetIdentity();
  Matrix n1(a_ent_.rows(), a_ent_.cols());
  n1.InitGaussian(rng, 0.01f);
  a_ent_ += n1;
  Matrix n2(a_rel_.rows(), a_rel_.cols());
  n2.InitGaussian(rng, 0.01f);
  a_rel_ += n2;
  Matrix n3(a_cls_.rows(), a_cls_.cols());
  n3.InitGaussian(rng, 0.01f);
  a_cls_ += n3;
}

JointAlignmentModel::CosineGrad JointAlignmentModel::CosineWithGrad(
    const Vector& mapped, const Vector& y) {
  CosineGrad out;
  out.d_mapped = Vector(mapped.dim());
  out.d_second = Vector(y.dim());
  out.sim = CosineGradInto(mapped, mapped.Norm(), y, y.Norm(), &out.d_mapped,
                           &out.d_second);
  return out;
}

float JointAlignmentModel::CosineGradInto(const Vector& mapped,
                                          float mapped_norm, const Vector& y,
                                          float y_norm, Vector* d_mapped,
                                          Vector* d_second) {
  const float nu = mapped_norm + kNormEps;
  const float nv = y_norm + kNormEps;
  const float sim = mapped.Dot(y) / (nu * nv);
  const float inv = 1.0f / (nu * nv);
  const float ku = sim / (nu * nu);
  const float kv = sim / (nv * nv);
  for (size_t i = 0; i < y.dim(); ++i) {
    (*d_mapped)[i] = y[i] * inv - mapped[i] * ku;
    (*d_second)[i] = mapped[i] * inv - y[i] * kv;
  }
  return sim;
}

float JointAlignmentModel::EntitySim(EntityId e1, EntityId e2) const {
  Vector u = a_ent_.Multiply(model1_->EntityRepr(e1));
  Vector v = model2_->EntityRepr(e2);
  return Cosine(u, v);
}

// --------------------------------------------------------------------------
// Caches
// --------------------------------------------------------------------------

void JointAlignmentModel::ComputeEntityStats() {
  const size_t n1 = kg1().num_entities();
  const size_t n2 = kg2().num_entities();
  const size_t dim = model1_->dim();
  repr1_ = Matrix(n1, dim);
  repr2_ = Matrix(n2, dim);
  ThreadPool& pool = GlobalThreadPool();
  pool.ParallelFor(n1, [this](size_t e) {
    model1_->EntityReprInto(static_cast<EntityId>(e), repr1_.RowData(e));
  });
  pool.ParallelFor(n2, [this](size_t e) {
    model2_->EntityReprInto(static_cast<EntityId>(e), repr2_.RowData(e));
  });

  // unit1 = normalize(repr1 * A_ent^T), unit2 = normalize(repr2): their
  // dot products are the cosines of Eq. 4.
  auto normalize_row = [dim](Matrix* m, size_t r) {
    float* row = m->RowData(r);
    double sq = 0.0;
    for (size_t c = 0; c < dim; ++c) sq += static_cast<double>(row[c]) * row[c];
    const float inv = sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(sq)) : 0.0f;
    for (size_t c = 0; c < dim; ++c) row[c] *= inv;
  };
  unit1_ = Matrix(n1, dim);
  pool.ParallelFor(n1, [&](size_t e) {
    a_ent_.MultiplyInto(repr1_.RowData(e), unit1_.RowData(e));
    normalize_row(&unit1_, e);
  });
  Matrix unit2 = repr2_;
  pool.ParallelFor(n2, [&](size_t e) { normalize_row(&unit2, e); });

  ent_stats_ = BlockedSimStats(unit1_, unit2, config_.z_ent);
  auto index = CandidateIndex::Build(std::move(unit2));
  DAAKG_CHECK(index.ok()) << index.status();
  entity_index_ = std::move(*index);

  // Entity weights (Eq. 6): best similarity in the other KG, clamped to
  // [0, 1] — a best-match cosine below zero means "surely dangling".
  weight1_ = ent_stats_.row_max;
  weight2_ = ent_stats_.col_max;
  for (float& w : weight1_) w = std::max(w, 0.0f);
  for (float& w : weight2_) w = std::max(w, 0.0f);
}

void JointAlignmentModel::ComputeMeanEmbeddings() {
  const size_t dim = model1_->dim();
  // Eq. 7 for one relation of `model`: the weighted mean of the local-optimum
  // relation vectors of its triplets.
  auto relation_mean = [dim](const KgeModel& model,
                             const std::vector<float>& weights, size_t r,
                             Vector* mean, double* wsum) {
    const auto& pairs = model.kg().TripletsOf(static_cast<RelationId>(r));
    Vector acc(dim);
    double total_w = 0.0;
    for (const auto& [h, t] : pairs) {
      const float w = std::min(weights[h], weights[t]);
      if (w <= 0.0f) continue;
      acc.Axpy(w, model.LocalOptimumRelation(h, t));
      total_w += w;
    }
    if (total_w > 0.0) {
      acc *= static_cast<float>(1.0 / total_w);
    } else if (!pairs.empty()) {
      // All incident entities look dangling; fall back to the unweighted
      // mean so the vector is still informative.
      for (const auto& [h, t] : pairs) {
        acc += model.LocalOptimumRelation(h, t);
      }
      acc *= 1.0f / static_cast<float>(pairs.size());
      total_w = static_cast<double>(pairs.size());
    }
    *wsum = total_w;
    *mean = std::move(acc);
  };
  // Eq. 9 for one class: the weighted mean of its members' representations.
  auto class_mean = [dim](const KnowledgeGraph& kg, const Matrix& reprs,
                          const std::vector<float>& weights, size_t c,
                          Vector* mean, double* wsum) {
    const auto& members = kg.EntitiesOf(static_cast<ClassId>(c));
    Vector acc(dim);
    double total_w = 0.0;
    for (EntityId e : members) {
      const float w = weights[e];
      if (w <= 0.0f) continue;
      acc.Axpy(w, reprs.Row(e));
      total_w += w;
    }
    if (total_w > 0.0) {
      acc *= static_cast<float>(1.0 / total_w);
    } else if (!members.empty()) {
      for (EntityId e : members) acc += reprs.Row(e);
      acc *= 1.0f / static_cast<float>(members.size());
      total_w = static_cast<double>(members.size());
    }
    *wsum = total_w;
    *mean = std::move(acc);
  };

  const size_t m1 = kg1().num_base_relations();
  const size_t m2 = kg2().num_base_relations();
  const size_t k1 = kg1().num_classes();
  const size_t k2 = kg2().num_classes();
  rel_mean1_.assign(m1, Vector());
  rel_mean2_.assign(m2, Vector());
  cls_mean1_.assign(k1, Vector());
  cls_mean2_.assign(k2, Vector());
  rel_wsum1_.assign(m1, 0.0);
  rel_wsum2_.assign(m2, 0.0);
  cls_wsum1_.assign(k1, 0.0);
  cls_wsum2_.assign(k2, 0.0);
  // One task per relation and per class of either side. Each mean
  // accumulates in its sequential order, so the means do not depend on the
  // thread count.
  GlobalThreadPool().ParallelFor(m1 + m2 + k1 + k2, [&](size_t i) {
    if (i < m1) {
      relation_mean(*model1_, weight1_, i, &rel_mean1_[i], &rel_wsum1_[i]);
      return;
    }
    i -= m1;
    if (i < m2) {
      relation_mean(*model2_, weight2_, i, &rel_mean2_[i], &rel_wsum2_[i]);
      return;
    }
    i -= m2;
    if (i < k1) {
      class_mean(kg1(), repr1_, weight1_, i, &cls_mean1_[i], &cls_wsum1_[i]);
      return;
    }
    i -= k1;
    class_mean(kg2(), repr2_, weight2_, i, &cls_mean2_[i], &cls_wsum2_[i]);
  });
}

JointAlignmentModel::SchemaKind JointAlignmentModel::Schema(ElementKind kind) {
  if (kind == ElementKind::kRelation) {
    return {&a_rel_,
            kg1().num_base_relations(),
            kg2().num_base_relations(),
            [m = model1_](uint32_t r) { return m->RelationRepr(r); },
            [m = model2_](uint32_t r) { return m->RelationRepr(r); },
            [m = model1_](uint32_t r, const Vector& g, float lr) {
              m->BackpropRelationRepr(r, g, lr);
            },
            [m = model2_](uint32_t r, const Vector& g, float lr) {
              m->BackpropRelationRepr(r, g, lr);
            }};
  }
  DAAKG_CHECK(kind == ElementKind::kClass);
  SchemaKind out{&a_cls_, kg1().num_classes(), kg2().num_classes(),
                 {}, {}, {}, {}};
  if (ec1_ == nullptr || ec2_ == nullptr) return out;
  out.repr1 = [ec = ec1_](uint32_t c) { return ec->ClassRepr(c); };
  out.repr2 = [ec = ec2_](uint32_t c) { return ec->ClassRepr(c); };
  out.backprop1 = [ec = ec1_](uint32_t c, const Vector& g, float lr) {
    ec->BackpropClassRepr(c, g, lr);
  };
  out.backprop2 = [ec = ec2_](uint32_t c, const Vector& g, float lr) {
    ec->BackpropClassRepr(c, g, lr);
  };
  return out;
}

void JointAlignmentModel::ComputeSchemaSimMatrices() {
  // S(x, x') = max(cos(A x, x'), cos(A_ent xbar, xbar')) (Fig. 3). Without
  // representations (classes without entity-class models) only the mean
  // branch is left; use_mean_embeddings = false drops it otherwise.
  auto fill = [this](const SchemaKind& k, const std::vector<Vector>& mean1,
                     const std::vector<Vector>& mean2, Matrix* sim) {
    *sim = Matrix(k.n1, k.n2);
    for (uint32_t x1 = 0; x1 < k.n1; ++x1) {
      Vector u;
      if (k.repr1) u = k.a->Multiply(k.repr1(x1));
      Vector mu = a_ent_.Multiply(mean1[x1]);
      for (uint32_t x2 = 0; x2 < k.n2; ++x2) {
        float s = k.repr1 ? Cosine(u, k.repr2(x2)) : -1.0f;
        if (config_.use_mean_embeddings || !k.repr1) {
          s = std::max(s, Cosine(mu, mean2[x2]));
        }
        (*sim)(x1, x2) = s;
      }
    }
  };
  fill(Schema(ElementKind::kRelation), rel_mean1_, rel_mean2_, &rel_sim_);
  fill(Schema(ElementKind::kClass), cls_mean1_, cls_mean2_, &cls_sim_);
}

std::array<uint64_t, 5> JointAlignmentModel::ParamVersions() const {
  return {version_, model1_->version(), model2_->version(),
          ec1_ != nullptr ? ec1_->version() : 0,
          ec2_ != nullptr ? ec2_->version() : 0};
}

void JointAlignmentModel::RefreshCaches() {
  static obs::Counter* refresh_count =
      obs::GlobalMetrics().GetCounter("daakg.align.refresh_caches_calls");
  static obs::Gauge* nonfinite =
      obs::GlobalMetrics().GetGauge("daakg.align.nonfinite_rows");
  const std::array<uint64_t, 5> versions = ParamVersions();
  if (cached_versions_ == versions) return;  // no parameter moved
  obs::TraceSpan span("align.refresh_caches", "align");
  refresh_count->Increment();
  {
    // The planning data of the old caches goes first, so no two
    // generations of it are held by the model at once.
    std::lock_guard<std::mutex> lock(pool_cache_mu_);
    pool_cache_.reset();
  }
  {
    obs::TraceSpan sub("align.entity_sim", "align");
    ComputeEntityStats();
  }
  {
    obs::TraceSpan sub("align.mean_embeddings", "align");
    ComputeMeanEmbeddings();
  }
  {
    obs::TraceSpan sub("align.schema_sims", "align");
    ComputeSchemaSimMatrices();
  }
  {
    obs::TraceSpan sub("align.calibration", "align");
    rel_stats_ = DenseSimStats(rel_sim_, config_.z_rel);
    cls_stats_ = DenseSimStats(cls_sim_, config_.z_cls);
  }
  // A diverged model shows here first: every consumer reads these caches.
  nonfinite->Set(static_cast<double>(
      NonFiniteRows(unit1_) + NonFiniteRows(unit_repr2()) +
      NonFiniteCells(rel_sim_) + NonFiniteCells(cls_sim_)));
  cached_versions_ = versions;
}

std::shared_ptr<PoolCache> JointAlignmentModel::pool_cache() const {
  DAAKG_CHECK(caches_ready());
  std::lock_guard<std::mutex> lock(pool_cache_mu_);
  if (pool_cache_ == nullptr) pool_cache_ = std::make_shared<PoolCache>();
  return pool_cache_;
}

Vector JointAlignmentModel::MappedEntityRepr1(EntityId e1) const {
  return a_ent_.Multiply(model1_->EntityRepr(e1));
}

Vector JointAlignmentModel::EntityRepr2(EntityId e2) const {
  return model2_->EntityRepr(e2);
}

double JointAlignmentModel::MatchProbability(const ElementPair& pair) const {
  DAAKG_CHECK(caches_ready());
  float sim = 0.0f;
  const SimStats* stats = nullptr;
  double z = 1.0;
  switch (pair.kind) {
    case ElementKind::kEntity:
      sim = entity_index_->Score(unit1_.RowData(pair.first), pair.second);
      stats = &ent_stats_;
      z = config_.z_ent;
      break;
    case ElementKind::kRelation:
      sim = rel_sim_(pair.first, pair.second);
      stats = &rel_stats_;
      z = config_.z_rel;
      break;
    case ElementKind::kClass:
      sim = cls_sim_(pair.first, pair.second);
      stats = &cls_stats_;
      z = config_.z_cls;
      break;
  }
  const double s = static_cast<double>(sim) / z;
  const double p_fwd = std::exp(s - stats->row_lse[pair.first]);
  const double p_bwd = std::exp(s - stats->col_lse[pair.second]);
  return std::min(p_fwd, p_bwd);  // Eq. 12
}

// --------------------------------------------------------------------------
// Training
// --------------------------------------------------------------------------

void JointAlignmentModel::ApplyEntityGrad(EntityId a, EntityId b,
                                          const Vector& d_mapped,
                                          const Vector& d_second,
                                          const Vector& xa, float coef,
                                          float lr) {
  // d loss / d A_ent += coef * d_mapped x_a^T; the KG1 side's gradient goes
  // through the updated A_ent.
  EntityStep& s = entity_step_;
  a_ent_.AddOuterThenTransposeMultiply(-lr * coef, d_mapped.data(), xa.data(),
                                       s.gx.data());
  s.gx *= coef;
  model1_->BackpropEntityRepr(a, s.gx, lr);
  s.gy = d_second;
  s.gy *= coef;
  model2_->BackpropEntityRepr(b, s.gy, lr);
}

double JointAlignmentModel::TrainEntityPair(EntityId e1, EntityId e2, Rng* rng,
                                            bool focal, float lr) {
  EntityStep& s = entity_step_;
  const size_t num_negs = s.negs.size();
  const size_t candidates = s.cands.size();

  model1_->EntityReprInto(e1, s.x1.data());
  a_ent_.MultiplyInto(s.x1.data(), s.u.data());
  model2_->EntityReprInto(e2, s.v.data());
  const float u_norm = s.u.Norm();
  const float v_norm = s.v.Norm();
  const float pos_sim =
      CosineGradInto(s.u, u_norm, s.v, v_norm, &s.d_mapped, &s.d_second);

  // Negatives: corrupt either side of the match (the M~_ent of Eq. 5). Each
  // is the most similar of `candidates` uniform draws (strict >: the first
  // best wins), *picked* against the per-epoch mining snapshot (cheap,
  // slightly stale); gradients are then computed fresh. All of a
  // negative's draws come before its scoring, which consumes no randomness.
  for (size_t k = 0; k < num_negs; ++k) {
    EntityNeg& neg = s.negs[k];
    neg.corrupt_second = rng->NextBernoulli(0.5);
    const size_t n_other =
        neg.corrupt_second ? kg2().num_entities() : kg1().num_entities();
    const EntityId keep = neg.corrupt_second ? e2 : e1;
    for (EntityId& cand : s.cands) {
      cand = static_cast<EntityId>(rng->NextUint64(n_other));
    }
    if (neg.corrupt_second) {
      SnapshotCosines(s.u.data(), u_norm, mining_repr2_, mining_norm2_,
                      s.cands.data(), candidates, s.cand_sims.data());
    } else {
      SnapshotCosines(s.v.data(), v_norm, mining_mapped1_, mining_norm1_,
                      s.cands.data(), candidates, s.cand_sims.data());
    }
    float best_sim = -2.0f;
    EntityId best = 0;
    for (size_t c = 0; c < candidates; ++c) {
      if (s.cands[c] == keep) continue;
      if (s.cand_sims[c] > best_sim) {
        best_sim = s.cand_sims[c];
        best = s.cands[c];
      }
    }
    if (neg.corrupt_second) {
      neg.n1 = e1;
      neg.n2 = best;
      model2_->EntityReprInto(neg.n2, neg.y.data());
      s.s_negs[k] = CosineGradInto(s.u, u_norm, neg.y, neg.y.Norm(),
                                        &neg.d_mapped, &neg.d_second);
    } else {
      neg.n1 = best;
      neg.n2 = e2;
      model1_->EntityReprInto(neg.n1, neg.x1.data());
      a_ent_.MultiplyInto(neg.x1.data(), neg.y.data());  // A_ent x1
      s.s_negs[k] = CosineGradInto(neg.y, neg.y.Norm(), s.v, v_norm,
                                        &neg.d_mapped, &neg.d_second);
    }
  }

  ContrastiveGrad cg =
      focal ? FocalContrastive(pos_sim, s.s_negs, kLossSharpness,
                               config_.focal_gamma)
            : SoftmaxContrastive(pos_sim, s.s_negs, kLossSharpness);

  if (cg.d_pos != 0.0) {
    ApplyEntityGrad(e1, e2, s.d_mapped, s.d_second, s.x1,
                    static_cast<float>(cg.d_pos), lr);
  }
  for (size_t j = 0; j < num_negs; ++j) {
    if (cg.d_negs[j] == 0.0) continue;
    const EntityNeg& neg = s.negs[j];
    ApplyEntityGrad(neg.n1, neg.n2, neg.d_mapped, neg.d_second,
                    neg.corrupt_second ? s.x1 : neg.x1,
                    static_cast<float>(cg.d_negs[j]), lr);
  }

  // Auxiliary L2 pull on the positive match (see kL2PullWeight).
  // d/dA = 2 w diff x1^T; d/dx1 = 2 w A^T diff; d/dx2 = -2 w diff.
  s.diff = s.u;
  s.diff -= s.v;  // A x1 - x2
  s.d_second = s.diff;
  s.d_second *= -1.0f;
  ApplyEntityGrad(e1, e2, s.diff, s.d_second, s.x1, 2.0f * kL2PullWeight, lr);
  return cg.loss;
}

void JointAlignmentModel::ApplySchemaGrad(const SchemaKind& k, uint32_t a,
                                          uint32_t b, const Vector& d_mapped,
                                          const Vector& d_second,
                                          const Vector& xa, float coef,
                                          float lr) {
  k.a->AddOuter(-lr * coef, d_mapped, xa);
  Vector gx = k.a->TransposeMultiply(d_mapped);
  gx *= coef;
  k.backprop1(a, gx, lr);
  Vector gy = d_second * coef;
  k.backprop2(b, gy, lr);
}

double JointAlignmentModel::TrainSchemaPair(const SchemaKind& k,
                                            uint32_t first, uint32_t second,
                                            Rng* rng, bool focal, float lr) {
  // Subgradient through the winning branch of the max() in S(x, x'). The
  // mean-embedding branch treats the means as constants (they are rebuilt
  // from entity embeddings at the next RefreshCaches()), so only the
  // embedding branch receives parameter updates; when the mean branch wins
  // the pair still shapes A_ent via its entity constituents.
  if (!k.repr1) return 0.0;
  Vector x1 = k.repr1(first);
  Vector u = k.a->Multiply(x1);
  Vector v = k.repr2(second);
  CosineGrad pos = CosineWithGrad(u, v);

  struct Neg {
    uint32_t n1;
    uint32_t n2;
    CosineGrad grad;
    Vector x1;
  };
  std::vector<Neg> negs;
  std::vector<double> s_negs;
  for (int j = 0; j < kNumNegatives; ++j) {
    Neg neg;
    if (rng->NextBernoulli(0.5) || k.n1 < 2) {
      neg.n1 = first;
      neg.n2 = static_cast<uint32_t>(rng->NextUint64(k.n2));
      neg.x1 = x1;
      neg.grad = CosineWithGrad(u, k.repr2(neg.n2));
    } else {
      neg.n1 = static_cast<uint32_t>(rng->NextUint64(k.n1));
      neg.n2 = second;
      neg.x1 = k.repr1(neg.n1);
      neg.grad = CosineWithGrad(k.a->Multiply(neg.x1), v);
    }
    s_negs.push_back(neg.grad.sim);
    negs.push_back(std::move(neg));
  }

  ContrastiveGrad cg =
      focal ? FocalContrastive(pos.sim, s_negs, kLossSharpness,
                               config_.focal_gamma)
            : SoftmaxContrastive(pos.sim, s_negs, kLossSharpness);

  if (cg.d_pos != 0.0) {
    ApplySchemaGrad(k, first, second, pos.d_mapped, pos.d_second, x1,
                    static_cast<float>(cg.d_pos), lr);
  }
  for (size_t j = 0; j < negs.size(); ++j) {
    if (cg.d_negs[j] == 0.0) continue;
    ApplySchemaGrad(k, negs[j].n1, negs[j].n2, negs[j].grad.d_mapped,
                    negs[j].grad.d_second, negs[j].x1,
                    static_cast<float>(cg.d_negs[j]), lr);
  }
  return cg.loss;
}

void JointAlignmentModel::RefreshMiningSnapshot() {
  const size_t n1 = kg1().num_entities();
  const size_t n2 = kg2().num_entities();
  const size_t dim = model1_->dim();
  if (mining_mapped1_.rows() != n1) mining_mapped1_ = Matrix(n1, dim);
  if (mining_repr2_.rows() != n2) mining_repr2_ = Matrix(n2, dim);
  mining_norm1_.resize(n1);
  mining_norm2_.resize(n2);
  ThreadPool& pool = GlobalThreadPool();
  pool.ParallelForShards(n1, [&](size_t, size_t begin, size_t end) {
    std::vector<float> repr(dim);
    for (size_t e = begin; e < end; ++e) {
      model1_->EntityReprInto(static_cast<EntityId>(e), repr.data());
      a_ent_.MultiplyInto(repr.data(), mining_mapped1_.RowData(e));
      mining_norm1_[e] = SpanNorm(mining_mapped1_.RowData(e), dim);
    }
  });
  pool.ParallelFor(n2, [&](size_t e) {
    model2_->EntityReprInto(static_cast<EntityId>(e),
                            mining_repr2_.RowData(e));
    mining_norm2_[e] = SpanNorm(mining_repr2_.RowData(e), dim);
  });
}

double JointAlignmentModel::TrainEpoch(const SeedAlignment& seed, Rng* rng,
                                       bool focal) {
  obs::TraceSpan span("align.joint_epoch", "align");
  ++version_;  // parameters move; cached sims go stale
  RefreshMiningSnapshot();
  double total = 0.0;
  size_t steps = 0;
  const float lr = kAlignLr;

  std::vector<size_t> order(seed.entities.size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  for (size_t i : order) {
    total += TrainEntityPair(seed.entities[i].first, seed.entities[i].second,
                             rng, focal, lr);
    ++steps;
  }
  const SchemaKind relations = Schema(ElementKind::kRelation);
  for (const auto& [r1, r2] : seed.relations) {
    total += TrainSchemaPair(relations, r1, r2, rng, focal, lr);
    ++steps;
  }
  const SchemaKind classes = Schema(ElementKind::kClass);
  for (const auto& [c1, c2] : seed.classes) {
    total += TrainSchemaPair(classes, c1, c2, rng, focal, lr);
    ++steps;
  }
  return steps > 0 ? total / static_cast<double>(steps) : 0.0;
}

// --------------------------------------------------------------------------
// Semi-supervision (Eq. 10)
// --------------------------------------------------------------------------

std::vector<std::pair<ElementPair, double>>
JointAlignmentModel::MineSemiSupervision() const {
  DAAKG_CHECK(caches_ready());
  std::vector<std::pair<ElementPair, double>> mined;

  // Candidates above tau, greedy one-to-one conflict resolution ("we
  // discard the pairs with lower similarity scores"), S0 read back from the
  // cell. The sweep takes cells >= a float threshold; the smallest float
  // above tau makes that exactly score > tau.
  float t = static_cast<float>(config_.tau);
  if (static_cast<double>(t) <= config_.tau) {
    t = std::nextafter(t, std::numeric_limits<float>::infinity());
  }
  const CandidateIndex& index = *entity_index_;
  for (const auto& [e1, e2] : GreedyOneToOneMatches(
           index.QueryAbove(unit1_, t), index.base().rows())) {
    mined.push_back({ElementPair{ElementKind::kEntity, e1, e2},
                     index.Score(unit1_.RowData(e1), e2)});
  }
  for (ElementKind kind : {ElementKind::kRelation, ElementKind::kClass}) {
    const Matrix& sim = kind == ElementKind::kRelation ? rel_sim_ : cls_sim_;
    for (const auto& [a, b] :
         GreedyOneToOneMatches(CellsAbove(sim, t), sim.cols())) {
      mined.push_back({ElementPair{kind, a, b}, sim(a, b)});
    }
  }
  return mined;
}

void JointAlignmentModel::AscendPairSimilarity(const ElementPair& pair,
                                               double weight, float lr) {
  // O_semi = -S0 * S(x, x'): gradient descent on it ascends S with
  // coefficient S0.
  const float coef = static_cast<float>(-weight);
  if (pair.kind == ElementKind::kEntity) {
    EntityStep& s = entity_step_;
    model1_->EntityReprInto(pair.first, s.x1.data());
    a_ent_.MultiplyInto(s.x1.data(), s.u.data());
    model2_->EntityReprInto(pair.second, s.v.data());
    CosineGradInto(s.u, s.u.Norm(), s.v, s.v.Norm(), &s.d_mapped,
                   &s.d_second);
    ApplyEntityGrad(pair.first, pair.second, s.d_mapped, s.d_second, s.x1,
                    coef, lr);
    return;
  }
  const SchemaKind k = Schema(pair.kind);
  if (!k.repr1) return;
  Vector x1 = k.repr1(pair.first);
  CosineGrad g = CosineWithGrad(k.a->Multiply(x1), k.repr2(pair.second));
  ApplySchemaGrad(k, pair.first, pair.second, g.d_mapped, g.d_second, x1,
                  coef, lr);
}

void JointAlignmentModel::TrainSemiEpoch(
    const std::vector<std::pair<ElementPair, double>>& semi, Rng* rng) {
  ++version_;
  std::vector<size_t> order(semi.size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  const float lr = kAlignLr * static_cast<float>(kSemiLrScale);
  for (size_t i : order) {
    const auto& [pair, s0] = semi[i];
    AscendPairSimilarity(pair, s0, lr);
  }
}

}  // namespace daakg

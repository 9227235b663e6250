#include "active/pool.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/topk.h"

namespace daakg {

namespace {

// Eq. 25 weights of one side's rows (KG1: `along_rows`) or columns (KG2) of
// a schema similarity matrix: the best similarity to the other side,
// clamped at 0.
std::vector<float> MaxSims(const Matrix& sim, bool along_rows) {
  std::vector<float> w(along_rows ? sim.rows() : sim.cols(), -1.0f);
  for (size_t r = 0; r < sim.rows(); ++r) {
    const float* row = sim.RowData(r);
    for (size_t c = 0; c < sim.cols(); ++c) {
      float& best = w[along_rows ? r : c];
      best = std::max(best, row[c]);
    }
  }
  for (float& x : w) x = std::max(x, 0.0f);
  return w;
}

}  // namespace

PoolGenerator::PoolGenerator(const AlignmentTask* task,
                             const JointAlignmentModel* model,
                             const PoolConfig& config)
    : task_(task),
      model_(model),
      config_(config),
      rel_w1_(MaxSims(model->relation_sim(), true)),
      rel_w2_(MaxSims(model->relation_sim(), false)),
      cls_w1_(MaxSims(model->class_sim(), true)),
      cls_w2_(MaxSims(model->class_sim(), false)),
      cache_(model->pool_cache()) {}

Vector PoolGenerator::Signature(int side, EntityId e) const {
  const KnowledgeGraph& kg = side == 1 ? task_->kg1 : task_->kg2;
  const std::vector<float>& rel_w = side == 1 ? rel_w1_ : rel_w2_;
  const std::vector<float>& cls_w = side == 1 ? cls_w1_ : cls_w2_;
  const size_t dim = model_->kg1_model()->dim();

  // Relation half: weighted mean of rbar over incident base relations
  // (Eq. 24 left), weights w_r = max similarity to the other side's
  // relations (Eq. 25).
  Vector rel_part(dim);
  double rel_sum = 0.0;
  for (const auto& nb : kg.Neighbors(e)) {
    RelationId r = nb.relation;
    if (kg.IsReverseRelation(r)) r = kg.ReverseOf(r);
    const float w = rel_w[r];
    if (w <= 0.0f) continue;
    const Vector& mean =
        side == 1 ? model_->RelationMean1(r) : model_->RelationMean2(r);
    rel_part.Axpy(w, mean);
    rel_sum += w;
  }
  if (rel_sum > 0.0) rel_part *= static_cast<float>(1.0 / rel_sum);

  // Class half (Eq. 24 right).
  Vector cls_part(dim);
  double cls_sum = 0.0;
  for (ClassId c : kg.ClassesOf(e)) {
    const float w = cls_w[c];
    if (w <= 0.0f) continue;
    const Vector& mean =
        side == 1 ? model_->ClassMean1(c) : model_->ClassMean2(c);
    cls_part.Axpy(w, mean);
    cls_sum += w;
  }
  if (cls_sum > 0.0) cls_part *= static_cast<float>(1.0 / cls_sum);

  // Mean embeddings live in their own KG's entity space; map side 1 through
  // A_ent (as every cross-KG comparison of means does, cf. Eqs. 7-9) so the
  // two signatures are comparable. Mapping the weighted halves is
  // equivalent to mapping each mean (linearity).
  if (side == 1) {
    rel_part = model_->a_ent().Multiply(rel_part);
    cls_part = model_->a_ent().Multiply(cls_part);
  }
  return Concat(rel_part, cls_part);
}

void PoolGenerator::EnsureIndexLocked() const {
  if (cache_->index != nullptr) return;
  obs::TraceSpan span("active.pool_signatures", "active");
  const size_t n1 = task_->kg1.num_entities();
  const size_t n2 = task_->kg2.num_entities();
  const size_t sig_dim = 2 * model_->kg1_model()->dim();
  span.AddArg("n1", static_cast<double>(n1));
  span.AddArg("n2", static_cast<double>(n2));

  // Unit-normalized signatures of both sides (parallel).
  Matrix& queries = cache_->queries;
  queries = Matrix(n1, sig_dim);
  Matrix sig2(n2, sig_dim);
  ThreadPool& pool = GlobalThreadPool();
  pool.ParallelFor(n1, [this, &queries](size_t e) {
    Vector s = Signature(1, static_cast<EntityId>(e));
    s.Normalize();
    queries.SetRow(e, s);
  });
  pool.ParallelFor(n2, [this, &sig2](size_t e) {
    Vector s = Signature(2, static_cast<EntityId>(e));
    s.Normalize();
    sig2.SetRow(e, s);
  });

  auto built = CandidateIndex::Build(std::move(sig2));
  DAAKG_CHECK(built.ok()) << built.status();
  cache_->index = std::move(built.value());
}

const CandidateIndex& PoolGenerator::index() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  EnsureIndexLocked();
  return *cache_->index;  // built once; never replaced in this slot
}

std::vector<ElementPair> PoolGenerator::Generate() const {
  return Generate(config_.top_n);
}

std::vector<ElementPair> PoolGenerator::Generate(size_t top_n) const {
  static obs::Counter* candidates =
      obs::GlobalMetrics().GetCounter("daakg.active.pool_candidates");
  static obs::Gauge* pool_size =
      obs::GlobalMetrics().GetGauge("daakg.active.pool_size");
  obs::TraceSpan span("active.pool_generate", "active");
  span.AddArg("top_n", static_cast<double>(top_n));
  std::lock_guard<std::mutex> lock(cache_->mu);
  if (cache_->top_n != top_n) {
    EnsureIndexLocked();
    cache_->pool = CutPoolLocked(top_n);
    cache_->top_n = top_n;
  }
  candidates->Increment(cache_->pool.size());
  pool_size->Set(static_cast<double>(cache_->pool.size()));
  return cache_->pool;
}

std::vector<ElementPair> PoolGenerator::CutPoolLocked(size_t top_n) const {
  const size_t n1 = task_->kg1.num_entities();
  const size_t n2 = task_->kg2.num_entities();
  const size_t n = std::min(top_n, n2);

  // Top-N lists in both directions from one pass through the index, which
  // streams the similarity matrix with per-row and per-column top-N state
  // (neither the n1 x n2 buffer nor its transpose is materialized).
  const size_t n_rev = std::min(top_n, n1);
  SimTopK topk = cache_->index->QueryTopK(cache_->queries, n, n_rev);

  // Mutual top-N: e2 is among e1's top N and e1 among e2's, found by a scan
  // of e2's at most N column entries.
  std::vector<ElementPair> out;
  for (uint32_t e1 = 0; e1 < n1; ++e1) {
    for (const ScoredIndex& cand : topk.row_topk[e1]) {
      const uint32_t e2 = cand.index;
      const std::vector<ScoredIndex>& col = topk.col_topk[e2];
      if (std::any_of(col.begin(), col.end(), [e1](const ScoredIndex& e) {
            return e.index == e1;
          })) {
        out.push_back(ElementPair{ElementKind::kEntity, e1, e2});
      }
    }
  }
  for (uint32_t r1 = 0; r1 < task_->kg1.num_base_relations(); ++r1) {
    for (uint32_t r2 = 0; r2 < task_->kg2.num_base_relations(); ++r2) {
      out.push_back(ElementPair{ElementKind::kRelation, r1, r2});
    }
  }
  for (uint32_t c1 = 0; c1 < task_->kg1.num_classes(); ++c1) {
    for (uint32_t c2 = 0; c2 < task_->kg2.num_classes(); ++c2) {
      out.push_back(ElementPair{ElementKind::kClass, c1, c2});
    }
  }
  return out;
}

double PoolGenerator::EntityPairRecall(
    const std::vector<ElementPair>& pool) const {
  if (task_->gold_entities.empty()) return 0.0;
  std::unordered_set<uint64_t> in_pool;
  for (const ElementPair& p : pool) {
    if (p.kind != ElementKind::kEntity) continue;
    in_pool.insert((static_cast<uint64_t>(p.first) << 32) | p.second);
  }
  size_t hit = 0;
  for (const auto& [e1, e2] : task_->gold_entities) {
    if (in_pool.count((static_cast<uint64_t>(e1) << 32) | e2) > 0) ++hit;
  }
  return static_cast<double>(hit) /
         static_cast<double>(task_->gold_entities.size());
}

}  // namespace daakg

#ifndef DAAKG_ACTIVE_POOL_H_
#define DAAKG_ACTIVE_POOL_H_

#include <memory>
#include <vector>

#include "align/joint_model.h"
#include "kg/alignment_task.h"
#include "kg/ids.h"
#include "tensor/matrix.h"

namespace daakg {

struct PoolConfig {
  // Top-N nearest neighbors by schema signature per entity (Sect. 6.1;
  // paper uses N = 1000 at 100k entities — scale accordingly).
  size_t top_n = 25;
};

// Element pair pool generation (Sect. 6.1).
//
// Each entity gets a *schema signature* (Eq. 24): the concatenation of the
// weighted mean of the mean embeddings of its incident relations and the
// weighted mean of the mean embeddings of its classes, where the weights
// (Eq. 25) down-weight dangling relations/classes. The entity-pair part of
// the pool keeps (e, e') iff e' is among the top-N signature neighbors of e
// AND e is among the top-N of e'; all relation and class pairs are kept.
//
// The signatures depend only on the model's caches, so they are computed
// and unit-normalized once per cache generation, into the model's planning
// slot (JointAlignmentModel::pool_cache()), one matrix per side. Every
// generator on an unchanged model shares them, and the
// slot keeps the last generated pool as well: planning several batches
// without retraining, or a repeated top-N, reuses it instead of cutting it
// again (the slot's edge costs and partition plans then serve the rest of
// the round; see InferenceEngine and PartitionSelect). RefreshCaches()
// releases the slot when it recomputes.
class PoolGenerator {
 public:
  // `model` must have fresh caches (mean embeddings, schema similarities),
  // and they must not be recomputed while the generator is in use.
  PoolGenerator(const AlignmentTask* task, const JointAlignmentModel* model,
                const PoolConfig& config);

  // Schema signature of entity `e` on the given side (exposed for tests).
  Vector Signature(int side, EntityId e) const;

  // Generates the pool. Entity pairs first, then relation pairs, then class
  // pairs (relation pairs cover base relations only).
  std::vector<ElementPair> Generate() const;
  // Same, with an explicit top-N cut-off (sweeps reuse the shared
  // signatures).
  std::vector<ElementPair> Generate(size_t top_n) const;

  // The unit KG2 signatures, shared through the model's pool slot (built
  // with the KG1 side on their first use; exposed for benches and tests).
  const Matrix& index() const;

  // Recall of gold entity matches inside the generated pool — the Fig. 6
  // measurement.
  double EntityPairRecall(const std::vector<ElementPair>& pool) const;

 private:
  // Fills the slot's unit signatures of both sides once; the caller holds
  // cache_->mu.
  void EnsureSignaturesLocked() const;
  // The pool at `top_n` from the slot's signatures; the caller holds
  // cache_->mu.
  std::vector<ElementPair> CutPoolLocked(size_t top_n) const;

  const AlignmentTask* task_;
  const JointAlignmentModel* model_;
  PoolConfig config_;
  // Eq. 25 weights per side: the best schema similarity of each base
  // relation and class to the other side's, clamped at 0.
  std::vector<float> rel_w1_, rel_w2_, cls_w1_, cls_w2_;
  std::shared_ptr<PoolCache> cache_;  // the model's pool slot
};

}  // namespace daakg

#endif  // DAAKG_ACTIVE_POOL_H_

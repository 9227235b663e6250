#ifndef DAAKG_ACTIVE_POOL_H_
#define DAAKG_ACTIVE_POOL_H_

#include <memory>
#include <vector>

#include "align/joint_model.h"
#include "index/candidate_index.h"
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
// Signatures are computed and unit-normalized once per generator: the KG2
// side lives inside a CandidateIndex (normalization hoisted into the index
// build), the KG1 side in a cached query matrix. Repeated Generate() calls
// — e.g. a top-N sweep — reuse both instead of recomputing the signatures.
class PoolGenerator {
 public:
  // `model` must have fresh caches (mean embeddings, schema similarities).
  PoolGenerator(const AlignmentTask* task, const JointAlignmentModel* model,
                const PoolConfig& config);

  // Schema signature of entity `e` on the given side (exposed for tests).
  Vector Signature(int side, EntityId e) const;

  // Generates the pool. Entity pairs first, then relation pairs, then class
  // pairs (relation pairs cover base relations only).
  std::vector<ElementPair> Generate() const;
  // Same, with an explicit top-N cut-off (sweeps reuse the cached index).
  std::vector<ElementPair> Generate(size_t top_n) const;

  // The signature index over KG2 (built on first use; exposed for benches
  // and tests).
  const CandidateIndex& index() const;

  // Recall of gold entity matches inside the generated pool — the Fig. 6
  // measurement.
  double EntityPairRecall(const std::vector<ElementPair>& pool) const;

 private:
  // Builds the KG1 query matrix and the KG2 signature index once.
  void EnsureIndex() const;

  const AlignmentTask* task_;
  const JointAlignmentModel* model_;
  PoolConfig config_;
  // Lazy caches (PoolGenerator is not used concurrently).
  mutable Matrix queries_;  // unit KG1 signatures
  mutable std::unique_ptr<CandidateIndex> index_;  // over unit KG2 signatures
};

}  // namespace daakg

#endif  // DAAKG_ACTIVE_POOL_H_

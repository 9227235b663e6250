#ifndef DAAKG_EMBEDDING_NEGATIVE_SAMPLER_H_
#define DAAKG_EMBEDDING_NEGATIVE_SAMPLER_H_

#include "common/rng.h"
#include "kg/knowledge_graph.h"

namespace daakg {

// Draws corrupted tails for margin-ranking training (the fake triplet sets
// T~ and T~_type of Eqs. 1 and 3). Because reverse triplets are
// materialized, corrupting tails suffices (Sect. 4.1).
class NegativeSampler {
 public:
  explicit NegativeSampler(const KnowledgeGraph* kg) : kg_(kg) {}

  // Writes `k` corrupted tails of `triplet` to out[0, k): each a random
  // entity t' != t such that (h, r, t') is not in the KG, falling back to an
  // arbitrary entity other than t after a bounded number of rejections
  // (relevant only for tiny graphs). The draws are independent and take
  // from `rng` in turn; the KG's keys of (h, r) are looked up once for all
  // k.
  void CorruptTails(const Triplet& triplet, Rng* rng, size_t k,
                    EntityId* out) const;

  // A random entity e' that does not belong to class c.
  EntityId CorruptEntityOfClass(ClassId c, Rng* rng) const;

 private:
  const KnowledgeGraph* kg_;
};

}  // namespace daakg

#endif  // DAAKG_EMBEDDING_NEGATIVE_SAMPLER_H_

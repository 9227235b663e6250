#include "embedding/negative_sampler.h"

#include <algorithm>
#include <span>

namespace daakg {
namespace {
constexpr int kMaxRejections = 16;
}  // namespace

void NegativeSampler::CorruptTails(const Triplet& triplet, Rng* rng,
                                   size_t k, EntityId* out) const {
  const size_t n = kg_->num_entities();
  const std::span<const uint64_t> keys =
      kg_->TripletKeys(triplet.head, triplet.relation);
  const auto draw = [&]() {
    for (int attempt = 0; attempt < kMaxRejections; ++attempt) {
      EntityId cand = static_cast<EntityId>(rng->NextUint64(n));
      if (cand == triplet.tail) continue;
      if (!std::binary_search(
              keys.begin(), keys.end(),
              KnowledgeGraph::TripletKey(triplet.relation, cand))) {
        return cand;
      }
    }
    // Dense tiny graph: accept any different entity.
    EntityId cand = static_cast<EntityId>(rng->NextUint64(n));
    if (cand == triplet.tail) cand = static_cast<EntityId>((cand + 1) % n);
    return cand;
  };
  for (size_t j = 0; j < k; ++j) out[j] = draw();
}

EntityId NegativeSampler::CorruptEntityOfClass(ClassId c, Rng* rng) const {
  const size_t n = kg_->num_entities();
  for (int attempt = 0; attempt < kMaxRejections; ++attempt) {
    EntityId cand = static_cast<EntityId>(rng->NextUint64(n));
    if (!kg_->HasType(cand, c)) return cand;
  }
  return static_cast<EntityId>(rng->NextUint64(n));
}

}  // namespace daakg

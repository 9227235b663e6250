#ifndef DAAKG_KG_ALIGNMENT_TASK_H_
#define DAAKG_KG_ALIGNMENT_TASK_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kg/ids.h"
#include "kg/knowledge_graph.h"

namespace daakg {

// A labeled subset of the gold alignment used to train (seed) a model; the
// complement of the entity part is the test set.
struct SeedAlignment {
  std::vector<std::pair<EntityId, EntityId>> entities;
  std::vector<std::pair<RelationId, RelationId>> relations;
  std::vector<std::pair<ClassId, ClassId>> classes;

  // Appends `pair` to the list of its kind.
  void Add(const ElementPair& pair);
  // Appends each kind's pairs of `other` not already present, in order.
  void Merge(const SeedAlignment& other);
};

// The test split of one element kind: the gold pairs not in `labeled`, in
// gold order. When `labeled` covers every gold pair (tiny schemata can be
// fully labeled), all gold pairs, so the metric stays defined.
std::vector<std::pair<uint32_t, uint32_t>> TestPairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& gold,
    const std::vector<std::pair<uint32_t, uint32_t>>& labeled);

// A KG alignment problem instance: two finalized KGs plus the gold
// entity/relation/class matches between them. This is the unit every model,
// baseline and bench in the repo consumes.
//
// Convention: gold matches always go (KG1 element, KG2 element). Relation
// matches refer to base relations (never synthetic reverse relations).
class AlignmentTask {
 public:
  AlignmentTask() = default;

  AlignmentTask(const AlignmentTask&) = delete;
  AlignmentTask& operator=(const AlignmentTask&) = delete;
  AlignmentTask(AlignmentTask&&) = default;
  AlignmentTask& operator=(AlignmentTask&&) = default;

  std::string name;
  KnowledgeGraph kg1;
  KnowledgeGraph kg2;
  std::vector<std::pair<EntityId, EntityId>> gold_entities;
  std::vector<std::pair<RelationId, RelationId>> gold_relations;
  std::vector<std::pair<ClassId, ClassId>> gold_classes;

  // Builds O(1) gold lookup maps. Call once after filling the gold vectors.
  void BuildGoldIndex();

  // Gold lookups (valid after BuildGoldIndex()). Return kInvalidId when the
  // element is dangling (has no counterpart).
  EntityId GoldEntityMatchOf1(EntityId e1) const;
  RelationId GoldRelationMatchOf1(RelationId r1) const;

  bool IsGoldEntityMatch(EntityId e1, EntityId e2) const {
    return GoldEntityMatchOf1(e1) == e2 && e2 != kInvalidId;
  }
  bool IsGoldRelationMatch(RelationId r1, RelationId r2) const;
  bool IsGoldClassMatch(ClassId c1, ClassId c2) const;

  // True label of an arbitrary element pair.
  bool IsGoldMatch(const ElementPair& pair) const;

  // Randomly samples a seed alignment containing `fraction` of the gold
  // entity matches and `fraction` of the gold relation/class matches
  // (at least one of each when any exist). Deterministic given `rng`.
  SeedAlignment SampleSeed(double fraction, Rng* rng) const;

 private:
  std::unordered_map<EntityId, EntityId> gold_e1_to_e2_;
  std::unordered_map<RelationId, RelationId> gold_r1_to_r2_;
  std::unordered_map<ClassId, ClassId> gold_c1_to_c2_;
};

}  // namespace daakg

#endif  // DAAKG_KG_ALIGNMENT_TASK_H_

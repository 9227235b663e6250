#include "kg/knowledge_graph.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace daakg {

EntityId KnowledgeGraph::AddEntity(std::string_view name) {
  DAAKG_CHECK(!finalized_);
  auto it = entity_by_name_.find(std::string(name));
  if (it != entity_by_name_.end()) return it->second;
  EntityId id = static_cast<EntityId>(entity_names_.size());
  entity_names_.emplace_back(name);
  entity_by_name_.emplace(entity_names_.back(), id);
  return id;
}

RelationId KnowledgeGraph::AddRelation(std::string_view name) {
  DAAKG_CHECK(!finalized_);
  auto it = relation_by_name_.find(std::string(name));
  if (it != relation_by_name_.end()) return it->second;
  RelationId id = static_cast<RelationId>(relation_names_.size());
  relation_names_.emplace_back(name);
  relation_by_name_.emplace(relation_names_.back(), id);
  return id;
}

ClassId KnowledgeGraph::AddClass(std::string_view name) {
  DAAKG_CHECK(!finalized_);
  auto it = class_by_name_.find(std::string(name));
  if (it != class_by_name_.end()) return it->second;
  ClassId id = static_cast<ClassId>(class_names_.size());
  class_names_.emplace_back(name);
  class_by_name_.emplace(class_names_.back(), id);
  return id;
}

void KnowledgeGraph::AddTriplet(EntityId head, RelationId relation,
                                EntityId tail) {
  DAAKG_CHECK(!finalized_);
  DAAKG_CHECK_LT(head, entity_names_.size());
  DAAKG_CHECK_LT(relation, relation_names_.size());
  DAAKG_CHECK_LT(tail, entity_names_.size());
  triplets_.push_back(Triplet{head, relation, tail});
}

void KnowledgeGraph::AddTypeTriplet(EntityId entity, ClassId cls) {
  DAAKG_CHECK(!finalized_);
  DAAKG_CHECK_LT(entity, entity_names_.size());
  DAAKG_CHECK_LT(cls, class_names_.size());
  type_triplets_.push_back(TypeTriplet{entity, cls});
}

Status KnowledgeGraph::Finalize() {
  if (finalized_) return FailedPreconditionError("Finalize() called twice");

  num_base_relations_ = relation_names_.size();

  // Materialize a reverse relation r^-1 per base relation (Sect. 4.1) and a
  // reversed copy of every relational triplet.
  reverse_relation_.resize(2 * num_base_relations_);
  for (size_t r = 0; r < num_base_relations_; ++r) {
    RelationId rev = static_cast<RelationId>(relation_names_.size());
    relation_names_.push_back(relation_names_[r] + "^-1");
    relation_by_name_.emplace(relation_names_.back(), rev);
    reverse_relation_[r] = rev;
    reverse_relation_[rev] = static_cast<RelationId>(r);
  }
  const size_t num_forward = triplets_.size();
  triplets_.reserve(2 * num_forward);
  for (size_t i = 0; i < num_forward; ++i) {
    const Triplet& t = triplets_[i];
    triplets_.push_back(
        Triplet{t.tail, reverse_relation_[t.relation], t.head});
  }

  // Adjacency and relation->pairs indexes.
  adjacency_.assign(entity_names_.size(), {});
  relation_triplets_.assign(relation_names_.size(), {});
  for (const Triplet& t : triplets_) {
    adjacency_[t.head].push_back(Neighbor{t.relation, t.tail});
    relation_triplets_[t.relation].emplace_back(t.head, t.tail);
  }
  // Membership index: every head's (relation, tail) keys, sorted, in one
  // array (CSR by head).
  triplet_offsets_.assign(entity_names_.size() + 1, 0);
  for (const Triplet& t : triplets_) ++triplet_offsets_[t.head + 1];
  for (size_t e = 0; e < entity_names_.size(); ++e) {
    triplet_offsets_[e + 1] += triplet_offsets_[e];
  }
  triplet_keys_.resize(triplets_.size());
  std::vector<size_t> next(triplet_offsets_.begin(), triplet_offsets_.end() - 1);
  for (const Triplet& t : triplets_) {
    triplet_keys_[next[t.head]++] = TripletKey(t.relation, t.tail);
  }
  for (size_t e = 0; e < entity_names_.size(); ++e) {
    std::sort(triplet_keys_.begin() + triplet_offsets_[e],
              triplet_keys_.begin() + triplet_offsets_[e + 1]);
  }

  // Class membership indexes.
  entity_classes_.assign(entity_names_.size(), {});
  class_entities_.assign(class_names_.size(), {});
  for (const TypeTriplet& t : type_triplets_) {
    entity_classes_[t.entity].push_back(t.cls);
    class_entities_[t.cls].push_back(t.entity);
  }
  // Deduplicate memberships (loaders may emit duplicates).
  for (auto& cs : entity_classes_) {
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
  }
  for (auto& es : class_entities_) {
    std::sort(es.begin(), es.end());
    es.erase(std::unique(es.begin(), es.end()), es.end());
  }

  finalized_ = true;
  return Status::Ok();
}

EntityId KnowledgeGraph::FindEntity(std::string_view name) const {
  auto it = entity_by_name_.find(std::string(name));
  return it == entity_by_name_.end() ? kInvalidId : it->second;
}

RelationId KnowledgeGraph::FindRelation(std::string_view name) const {
  auto it = relation_by_name_.find(std::string(name));
  return it == relation_by_name_.end() ? kInvalidId : it->second;
}

ClassId KnowledgeGraph::FindClass(std::string_view name) const {
  auto it = class_by_name_.find(std::string(name));
  return it == class_by_name_.end() ? kInvalidId : it->second;
}

bool KnowledgeGraph::HasTriplet(EntityId head, RelationId relation,
                                EntityId tail) const {
  return TripletIndex(head, relation, tail) != kNoTriplet;
}

size_t KnowledgeGraph::TripletIndex(EntityId head, RelationId relation,
                                    EntityId tail) const {
  DAAKG_CHECK(finalized_);
  if (head >= entity_names_.size()) return kNoTriplet;
  const auto first = triplet_keys_.begin() + triplet_offsets_[head];
  const auto last = triplet_keys_.begin() + triplet_offsets_[head + 1];
  const uint64_t key = TripletKey(relation, tail);
  const auto it = std::lower_bound(first, last, key);
  if (it == last || *it != key) return kNoTriplet;
  return static_cast<size_t>(it - triplet_keys_.begin());
}

std::span<const uint64_t> KnowledgeGraph::TripletKeys(
    EntityId head, RelationId relation) const {
  DAAKG_CHECK(finalized_);
  if (head >= entity_names_.size()) return {};
  const auto first = triplet_keys_.begin() + triplet_offsets_[head];
  const auto last = triplet_keys_.begin() + triplet_offsets_[head + 1];
  const auto lo = std::lower_bound(first, last, TripletKey(relation, 0));
  const auto hi = std::upper_bound(
      lo, last, TripletKey(relation, std::numeric_limits<EntityId>::max()));
  return {lo, hi};
}

bool KnowledgeGraph::HasType(EntityId e, ClassId c) const {
  DAAKG_CHECK(finalized_);
  const auto& cs = entity_classes_[e];
  return std::binary_search(cs.begin(), cs.end(), c);
}

}  // namespace daakg

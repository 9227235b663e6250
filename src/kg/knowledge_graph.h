#ifndef DAAKG_KG_KNOWLEDGE_GRAPH_H_
#define DAAKG_KG_KNOWLEDGE_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "kg/ids.h"

namespace daakg {

// A knowledge graph G = (E, R, C, T) per Sect. 2.1 of the paper: entities,
// relations, classes, and triplets (relational edges between entities plus
// `type` edges from entities to classes).
//
// Usage: add elements and triplets, then call Finalize() once to build the
// adjacency / membership indexes. Finalize() also materializes a synthetic
// reverse relation r^-1 for every relation and the reversed copy of every
// relational triplet (Sect. 4.1), so downstream negative sampling only ever
// corrupts tails.
class KnowledgeGraph {
 public:
  // An outgoing relational edge as seen from a fixed head entity.
  struct Neighbor {
    RelationId relation;
    EntityId tail;
  };

  KnowledgeGraph() = default;

  // --- construction ------------------------------------------------------

  // Adds (or looks up) an element by unique name and returns its id.
  EntityId AddEntity(std::string_view name);
  RelationId AddRelation(std::string_view name);
  ClassId AddClass(std::string_view name);

  // Adds a relational triplet. Ids must already exist. Duplicate triplets
  // are kept (they are rare and harmless for training).
  void AddTriplet(EntityId head, RelationId relation, EntityId tail);
  // Adds an entity-class membership triplet.
  void AddTypeTriplet(EntityId entity, ClassId cls);

  // Builds adjacency and membership indexes and adds reverse relations /
  // triplets. Must be called exactly once, after all additions.
  Status Finalize();
  bool finalized() const { return finalized_; }

  // --- sizes --------------------------------------------------------------

  size_t num_entities() const { return entity_names_.size(); }
  // Number of relations incl. synthetic reverse relations (after Finalize()).
  size_t num_relations() const { return relation_names_.size(); }
  // Number of relations the user added (excludes reverse relations).
  size_t num_base_relations() const { return num_base_relations_; }
  size_t num_classes() const { return class_names_.size(); }
  // Relational triplets incl. reversed copies (after Finalize()).
  size_t num_triplets() const { return triplets_.size(); }
  size_t num_type_triplets() const { return type_triplets_.size(); }

  // --- lookups ------------------------------------------------------------

  const std::string& entity_name(EntityId e) const { return entity_names_[e]; }
  const std::string& relation_name(RelationId r) const {
    return relation_names_[r];
  }
  const std::string& class_name(ClassId c) const { return class_names_[c]; }

  // Returns kInvalidId if the name is unknown.
  EntityId FindEntity(std::string_view name) const;
  RelationId FindRelation(std::string_view name) const;
  ClassId FindClass(std::string_view name) const;

  // --- structure access (valid after Finalize()) --------------------------

  const std::vector<Triplet>& triplets() const { return triplets_; }
  const std::vector<TypeTriplet>& type_triplets() const {
    return type_triplets_;
  }

  // Outgoing relational edges of `e` (includes reverse edges, so this is
  // effectively the full neighborhood).
  const std::vector<Neighbor>& Neighbors(EntityId e) const {
    return adjacency_[e];
  }

  // Classes `e` belongs to / entities belonging to `c`.
  const std::vector<ClassId>& ClassesOf(EntityId e) const {
    return entity_classes_[e];
  }
  const std::vector<EntityId>& EntitiesOf(ClassId c) const {
    return class_entities_[c];
  }

  // All (head, tail) pairs connected by relation `r`.
  const std::vector<std::pair<EntityId, EntityId>>& TripletsOf(
      RelationId r) const {
    return relation_triplets_[r];
  }

  // Relational degree (in + out, since reverse edges are materialized).
  size_t Degree(EntityId e) const { return adjacency_[e].size(); }

  // For a relation id: its reverse (r <-> r^-1). Identity until Finalize().
  RelationId ReverseOf(RelationId r) const { return reverse_relation_[r]; }
  // True if `r` is a synthetic reverse relation.
  bool IsReverseRelation(RelationId r) const { return r >= num_base_relations_; }

  // True if the relational triplet exists (binary search among the head's
  // edges; index built in Finalize()).
  bool HasTriplet(EntityId head, RelationId relation, EntityId tail) const;
  // The relational triplet's index in [0, num_triplets()), or kNoTriplet
  // if it does not exist: its position in the HasTriplet index, so
  // distinct triplets have distinct indexes (a duplicated triplet has its
  // first copy's). Lets callers keep per-triplet data in flat arrays.
  static constexpr size_t kNoTriplet = static_cast<size_t>(-1);
  size_t TripletIndex(EntityId head, RelationId relation, EntityId tail) const;
  // The HasTriplet index's keys of head's triplets with `relation`, sorted:
  // (head, relation, t) exists iff TripletKey(relation, t) is among them.
  // Empty for an unknown head. Lets a caller that tests many tails of one
  // (head, relation) search this range instead of all of head's keys.
  std::span<const uint64_t> TripletKeys(EntityId head,
                                        RelationId relation) const;
  static uint64_t TripletKey(RelationId relation, EntityId tail) {
    return (static_cast<uint64_t>(relation) << 32) | tail;
  }
  // True if entity `e` has class `c`.
  bool HasType(EntityId e, ClassId c) const;

 private:
  std::vector<std::string> entity_names_;
  std::vector<std::string> relation_names_;
  std::vector<std::string> class_names_;
  std::unordered_map<std::string, EntityId> entity_by_name_;
  std::unordered_map<std::string, RelationId> relation_by_name_;
  std::unordered_map<std::string, ClassId> class_by_name_;

  std::vector<Triplet> triplets_;
  std::vector<TypeTriplet> type_triplets_;

  // Built by Finalize().
  std::vector<std::vector<Neighbor>> adjacency_;
  std::vector<std::vector<ClassId>> entity_classes_;
  std::vector<std::vector<EntityId>> class_entities_;
  std::vector<std::vector<std::pair<EntityId, EntityId>>> relation_triplets_;
  std::vector<RelationId> reverse_relation_;
  // HasTriplet index: the sorted TripletKey(relation, tail) of head h's
  // triplets are triplet_keys_[triplet_offsets_[h], triplet_offsets_[h+1]).
  std::vector<size_t> triplet_offsets_;
  std::vector<uint64_t> triplet_keys_;

  size_t num_base_relations_ = 0;
  bool finalized_ = false;
};

}  // namespace daakg

#endif  // DAAKG_KG_KNOWLEDGE_GRAPH_H_

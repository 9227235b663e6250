#ifndef DAAKG_KG_IDS_H_
#define DAAKG_KG_IDS_H_

#include <cstdint>
#include <functional>
#include <utility>

namespace daakg {

// Dense integer handles for KG elements. Ids are indexes into per-graph
// arrays; they are only meaningful relative to one KnowledgeGraph.
using EntityId = uint32_t;
using RelationId = uint32_t;
using ClassId = uint32_t;

inline constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

// A relational edge (head, relation, tail) between two entities.
struct Triplet {
  EntityId head;
  RelationId relation;
  EntityId tail;

  bool operator==(const Triplet& o) const {
    return head == o.head && relation == o.relation && tail == o.tail;
  }
};

// A membership edge (entity, type, cls).
struct TypeTriplet {
  EntityId entity;
  ClassId cls;

  bool operator==(const TypeTriplet& o) const {
    return entity == o.entity && cls == o.cls;
  }
};

// Kind of a KG element; element pairs in the active-learning pool carry one.
enum class ElementKind { kEntity = 0, kRelation = 1, kClass = 2 };

const char* ElementKindToString(ElementKind kind);

// A candidate correspondence between an element of KG1 (first) and an
// element of KG2 (second), tagged with its kind.
struct ElementPair {
  ElementKind kind;
  uint32_t first;
  uint32_t second;

  bool operator==(const ElementPair& o) const {
    return kind == o.kind && first == o.first && second == o.second;
  }
};

struct ElementPairHash {
  size_t operator()(const ElementPair& p) const {
    size_t h = static_cast<size_t>(p.kind);
    h = h * 0x9E3779B1u + p.first;
    h = h * 0x9E3779B1u + p.second;
    return h;
  }
};

}  // namespace daakg

#endif  // DAAKG_KG_IDS_H_

#ifndef DAAKG_INFER_ALIGNMENT_GRAPH_H_
#define DAAKG_INFER_ALIGNMENT_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "kg/alignment_task.h"
#include "kg/ids.h"

namespace daakg {

// The alignment graph G x_P G' of Sect. 5.1: nodes are the element pairs of
// the pool P; a directed edge connects entity pair (x, x') to pair
// (x'', x''') labeled by relation pair (r, r') whenever (x, r, x'') is a
// triplet of KG1, (x', r', x''') is a triplet of KG2, and all three pairs
// are in the pool. Type edges (entity pair -> class pair) carry the special
// label kTypeLabel.
//
// Reverse relations are materialized in the KGs, so the graph is naturally
// "bidirectional": the reverse edge appears with the reverse relation pair.
//
// Edge order (selection's tie-breaking depends on it): a node's relational
// edges come first, ordered by the position of the KG1 edge in
// kg1.Neighbors(x) and then of the KG2 edge in kg2.Neighbors(x'); its type
// edges follow, ordered by kg1.ClassesOf(x), then kg2.ClassesOf(x'). The
// edges are stored as CSR (one flat array, one offset per node); see
// DESIGN.md for the layout and the join, grouped by KG1 entity, that builds
// it.
class AlignmentGraph {
 public:
  static constexpr uint32_t kTypeLabel = 0xFFFFFFFFu;

  struct Edge {
    uint32_t target;      // pool index of the target pair
    uint32_t rel_pair;    // pool index of the relation pair label, or kTypeLabel
  };

  // Builds the graph over `pool`, whose ids must be valid ids of their KG.
  // Edges are labeled by base relation pairs: two forward KG edges with
  // relations (r1, r2) by the pool pair (r1, r2), two reverse ones by the
  // pair of their base relations (a relation pair (r1, r2) implicitly
  // licenses (r1^-1, r2^-1) edges); a forward edge never pairs with a
  // reverse one. The nodes of each KG1 entity are built together, the
  // entities in parallel on GlobalThreadPool(); the result does not depend
  // on the pool size.
  AlignmentGraph(const AlignmentTask* task,
                 const std::vector<ElementPair>& pool);

  const std::vector<ElementPair>& pool() const { return pool_; }
  size_t num_nodes() const { return pool_.size(); }
  size_t num_edges() const { return edges_.size(); }

  // Pool index of `pair` (the first one if the pool repeats it), or
  // kInvalidId.
  uint32_t IndexOf(const ElementPair& pair) const;

  // Outgoing edges of pool node `node`.
  std::span<const Edge> Out(uint32_t node) const {
    return {edges_.data() + edge_offsets_[node],
            edges_.data() + edge_offsets_[node + 1]};
  }
  // Index of Out(node)[0] among all edges: per-edge data kept in a flat
  // array parallel to the graph is read at FirstEdge(node) + k.
  size_t FirstEdge(uint32_t node) const { return edge_offsets_[node]; }

  // All (source, target) node pairs labeled by relation-pair node
  // `rel_pair_node`, in source-node then edge order (used by Eqs. 20 and
  // 22). Empty for any other node.
  std::span<const std::pair<uint32_t, uint32_t>> EdgesOfRelationPair(
      uint32_t rel_pair_node) const {
    return {label_edges_.data() + label_offsets_[rel_pair_node],
            label_edges_.data() + label_offsets_[rel_pair_node + 1]};
  }

  // Original KG ids behind an edge label: maps a pool relation-pair index
  // to (r1, r2).
  const AlignmentTask& task() const { return *task_; }

 private:
  // The pool partners (kg2 entity, pool index) of one KG1 entity, sorted by
  // KG2 id, then pool index; a repeated pair appears once per node. The
  // join reads a row in two roles: as e1's group of nodes, and as the
  // targets that a KG1 edge into e1 can reach.
  std::span<const std::pair<EntityId, uint32_t>> PartnersOf(EntityId e1) const {
    return {partners_.data() + partner_offsets_[e1],
            partners_.data() + partner_offsets_[e1 + 1]};
  }

  const AlignmentTask* task_;
  std::vector<ElementPair> pool_;

  // Pool index of relation pair (r1, r2) at [r1 * |R2| + r2] and of class
  // pair (c1, c2) at [c1 * |C2| + c2], or kInvalidId; |R| counts reverse
  // relations.
  std::vector<uint32_t> relation_nodes_;
  std::vector<uint32_t> class_nodes_;
  // CSR of the entity pairs' partners, by KG1 entity (see PartnersOf).
  std::vector<uint32_t> partner_offsets_;
  std::vector<std::pair<EntityId, uint32_t>> partners_;

  // CSR of the edges, by source node.
  std::vector<uint32_t> edge_offsets_;
  std::vector<Edge> edges_;
  // CSR of the relational edges' (source, target), by label node.
  std::vector<uint32_t> label_offsets_;
  std::vector<std::pair<uint32_t, uint32_t>> label_edges_;
};

}  // namespace daakg

#endif  // DAAKG_INFER_ALIGNMENT_GRAPH_H_

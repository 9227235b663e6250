#include "infer/alignment_graph.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace daakg {

AlignmentGraph::AlignmentGraph(const AlignmentTask* task,
                               const std::vector<ElementPair>& pool)
    : task_(task), pool_(pool) {
  obs::TraceSpan span("infer.build_graph", "infer");
  span.AddArg("nodes", static_cast<double>(pool_.size()));
  const KnowledgeGraph& kg1 = task_->kg1;
  const KnowledgeGraph& kg2 = task_->kg2;
  const size_t n = pool_.size();
  DAAKG_CHECK(n < kInvalidId);
  const size_t num_rel1 = kg1.num_relations();
  const size_t num_rel2 = kg2.num_relations();
  const size_t num_cls2 = kg2.num_classes();

  // Schema nodes in dense tables; entity pairs bucketed by KG1 entity. A
  // repeated pair keeps its first pool index.
  relation_nodes_.assign(num_rel1 * num_rel2, kInvalidId);
  class_nodes_.assign(kg1.num_classes() * num_cls2, kInvalidId);
  partner_offsets_.assign(kg1.num_entities() + 1, 0);
  for (uint32_t node = 0; node < n; ++node) {
    const ElementPair& pair = pool_[node];
    switch (pair.kind) {
      case ElementKind::kEntity:
        DAAKG_CHECK(pair.first < kg1.num_entities() &&
                    pair.second < kg2.num_entities());
        ++partner_offsets_[pair.first + 1];
        break;
      case ElementKind::kRelation: {
        DAAKG_CHECK(pair.first < num_rel1 && pair.second < num_rel2);
        uint32_t& slot = relation_nodes_[pair.first * num_rel2 + pair.second];
        if (slot == kInvalidId) slot = node;
        break;
      }
      case ElementKind::kClass: {
        DAAKG_CHECK(pair.first < kg1.num_classes() && pair.second < num_cls2);
        uint32_t& slot = class_nodes_[pair.first * num_cls2 + pair.second];
        if (slot == kInvalidId) slot = node;
        break;
      }
    }
  }
  for (size_t e = 0; e < kg1.num_entities(); ++e) {
    partner_offsets_[e + 1] += partner_offsets_[e];
  }
  partners_.resize(partner_offsets_.back());
  {
    std::vector<uint32_t> fill(partner_offsets_.begin(),
                               partner_offsets_.end() - 1);
    for (uint32_t node = 0; node < n; ++node) {
      const ElementPair& pair = pool_[node];
      if (pair.kind != ElementKind::kEntity) continue;
      partners_[fill[pair.first]++] = {pair.second, node};
    }
  }
  // Sort each partner row by (KG2 id, node). A repeated pair keeps every
  // node, its first one first, so a binary search finds its first index.
  for (size_t e = 0; e < kg1.num_entities(); ++e) {
    std::sort(partners_.begin() + partner_offsets_[e],
              partners_.begin() + partner_offsets_[e + 1]);
  }

  // Label of a KG1 edge with relation r1 against a KG2 edge with relation
  // r2, at [r1 * |R2| + r2]: the pool index of their base relation pair when
  // both edges are forward or both reverse, else kInvalidId.
  std::vector<uint32_t> labels(num_rel1 * num_rel2, kInvalidId);
  for (RelationId r1 = 0; r1 < num_rel1; ++r1) {
    const bool rev1 = kg1.IsReverseRelation(r1);
    const RelationId base1 = rev1 ? kg1.ReverseOf(r1) : r1;
    for (RelationId r2 = 0; r2 < num_rel2; ++r2) {
      if (kg2.IsReverseRelation(r2) != rev1) continue;
      const RelationId base2 = rev1 ? kg2.ReverseOf(r2) : r2;
      labels[r1 * num_rel2 + r2] = relation_nodes_[base1 * num_rel2 + base2];
    }
  }

  // The join, grouped by KG1 entity: one contiguous range of KG1 entities
  // per shard, each joined into its own buffer in group order (entity by
  // entity, each entity's nodes in partner-row order). Per-node counts give
  // every node its place in the CSR.
  edge_offsets_.assign(n + 1, 0);
  struct Shard {
    size_t begin = 0;
    size_t end = 0;
    std::vector<Edge> edges;
  };
  std::vector<Shard> shards(GlobalThreadPool().num_threads());
  GlobalThreadPool().ParallelForShards(
      kg1.num_entities(), [&](size_t s, size_t begin, size_t end) {
        Shard& shard = shards[s];
        shard.begin = begin;
        shard.end = end;
        // The candidate edges of one KG1 entity e1: its edge at position
        // pos1 of kg1.Neighbors(e1), with relation r1, reaches pool node
        // `target`, a pair (t1, t2). head[t2] starts the chain of the
        // candidates that reach t2, linked by `next`.
        struct Stamp {
          uint32_t pos1, r1, target, t2, next;
        };
        std::vector<uint32_t> head(kg2.num_entities(), kInvalidId);
        std::vector<Stamp> stamps;
        // One node's relational edges, keyed by pos1 << 32 | pos2.
        std::vector<std::pair<uint64_t, Edge>> matched;
        for (auto e1 = static_cast<EntityId>(begin); e1 < end; ++e1) {
          const auto group = PartnersOf(e1);
          if (group.empty()) continue;
          const auto& nbrs1 = kg1.Neighbors(e1);
          for (uint32_t pos1 = 0; pos1 < nbrs1.size(); ++pos1) {
            // A repeated pair's first node is the target; skip the others.
            EntityId last = kInvalidId;
            for (const auto& [t2, target] : PartnersOf(nbrs1[pos1].tail)) {
              if (t2 == last) continue;
              last = t2;
              stamps.push_back(
                  Stamp{pos1, nbrs1[pos1].relation, target, t2, head[t2]});
              head[t2] = static_cast<uint32_t>(stamps.size() - 1);
            }
          }
          for (const auto& [e2, node] : group) {
            // Relational edges: each KG2 edge (e2, r2, t2) against the
            // candidates that reach t2, kept where (r1, r2) labels an edge.
            const auto& nbrs2 = kg2.Neighbors(e2);
            matched.clear();
            for (uint32_t pos2 = 0; pos2 < nbrs2.size(); ++pos2) {
              for (uint32_t k = head[nbrs2[pos2].tail]; k != kInvalidId;
                   k = stamps[k].next) {
                const Stamp& stamp = stamps[k];
                const uint32_t label =
                    labels[size_t{stamp.r1} * num_rel2 + nbrs2[pos2].relation];
                if (label == kInvalidId) continue;
                matched.emplace_back((uint64_t{stamp.pos1} << 32) | pos2,
                                     Edge{stamp.target, label});
              }
            }
            std::sort(matched.begin(), matched.end(),
                      [](const auto& a, const auto& b) {
                        return a.first < b.first;
                      });
            const size_t before = shard.edges.size();
            for (const auto& [key, edge] : matched) {
              shard.edges.push_back(edge);
            }
            // Type edges to class pairs.
            for (ClassId c1 : kg1.ClassesOf(e1)) {
              const uint32_t* row = class_nodes_.data() + c1 * num_cls2;
              for (ClassId c2 : kg2.ClassesOf(e2)) {
                if (row[c2] != kInvalidId) {
                  shard.edges.push_back(Edge{row[c2], kTypeLabel});
                }
              }
            }
            edge_offsets_[node + 1] =
                static_cast<uint32_t>(shard.edges.size() - before);
          }
          for (const Stamp& stamp : stamps) head[stamp.t2] = kInvalidId;
          stamps.clear();
        }
      });
  for (size_t node = 0; node < n; ++node) {
    const size_t total = size_t{edge_offsets_[node]} + edge_offsets_[node + 1];
    DAAKG_CHECK(total < kInvalidId);
    edge_offsets_[node + 1] = static_cast<uint32_t>(total);
  }
  // Each buffer holds its shard's nodes in group order; walk them again.
  edges_.resize(edge_offsets_.back());
  for (Shard& shard : shards) {
    auto from = shard.edges.cbegin();
    for (auto e1 = static_cast<EntityId>(shard.begin); e1 < shard.end; ++e1) {
      for (const auto& [e2, node] : PartnersOf(e1)) {
        const auto to = from + (edge_offsets_[node + 1] - edge_offsets_[node]);
        std::copy(from, to, edges_.begin() + edge_offsets_[node]);
        from = to;
      }
    }
    shard.edges = {};
  }

  // Relational edges by label, in source-node order.
  label_offsets_.assign(n + 1, 0);
  for (const Edge& edge : edges_) {
    if (edge.rel_pair != kTypeLabel) ++label_offsets_[edge.rel_pair + 1];
  }
  for (size_t node = 0; node < n; ++node) {
    label_offsets_[node + 1] += label_offsets_[node];
  }
  label_edges_.resize(label_offsets_.back());
  std::vector<uint32_t> fill(label_offsets_.begin(), label_offsets_.end() - 1);
  for (uint32_t node = 0; node < n; ++node) {
    for (const Edge& edge : Out(node)) {
      if (edge.rel_pair == kTypeLabel) continue;
      label_edges_[fill[edge.rel_pair]++] = {node, edge.target};
    }
  }
  span.AddArg("edges", static_cast<double>(edges_.size()));
}

uint32_t AlignmentGraph::IndexOf(const ElementPair& pair) const {
  const KnowledgeGraph& kg1 = task_->kg1;
  const KnowledgeGraph& kg2 = task_->kg2;
  switch (pair.kind) {
    case ElementKind::kEntity: {
      if (pair.first >= kg1.num_entities()) return kInvalidId;
      const auto partners = PartnersOf(pair.first);
      const auto it = std::lower_bound(
          partners.begin(), partners.end(), pair.second,
          [](const std::pair<EntityId, uint32_t>& entry, EntityId e2) {
            return entry.first < e2;
          });
      return it != partners.end() && it->first == pair.second ? it->second
                                                              : kInvalidId;
    }
    case ElementKind::kRelation:
      if (pair.first >= kg1.num_relations() ||
          pair.second >= kg2.num_relations()) {
        return kInvalidId;
      }
      return relation_nodes_[pair.first * kg2.num_relations() + pair.second];
    case ElementKind::kClass:
      if (pair.first >= kg1.num_classes() || pair.second >= kg2.num_classes()) {
        return kInvalidId;
      }
      return class_nodes_[pair.first * kg2.num_classes() + pair.second];
  }
  return kInvalidId;
}

}  // namespace daakg

#include "infer/alignment_graph.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace daakg {

// Lookup tables the join needs only while the graph is built.
struct AlignmentGraph::JoinIndex {
  // Label of a KG1 edge with relation r1 against a KG2 edge with relation
  // r2, at [r1 * |R2| + r2]: the pool index of their base relation pair when
  // both edges are forward or both reverse, else kInvalidId.
  std::vector<uint32_t> labels;
  size_t num_relations2 = 0;
  // CSR of every KG2 entity's neighbours as (tail, position in
  // kg2.Neighbors(head)), sorted by tail, then position.
  std::vector<uint32_t> offsets;
  std::vector<std::pair<EntityId, uint32_t>> by_tail;
};

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
  // Sort each partner row by (KG2 id, node) and drop repeated pairs.
  uint32_t kept = 0;
  for (size_t e = 0; e < kg1.num_entities(); ++e) {
    const auto begin = partners_.begin() + partner_offsets_[e];
    const auto end = partners_.begin() + partner_offsets_[e + 1];
    std::sort(begin, end);
    const uint32_t row = kept;
    for (auto it = begin; it != end; ++it) {
      if (kept > row && partners_[kept - 1].first == it->first) continue;
      partners_[kept++] = *it;
    }
    partner_offsets_[e] = row;
  }
  partner_offsets_.back() = kept;
  partners_.resize(kept);

  JoinIndex join;
  join.num_relations2 = num_rel2;
  join.labels.assign(num_rel1 * num_rel2, kInvalidId);
  for (RelationId r1 = 0; r1 < num_rel1; ++r1) {
    const bool rev1 = kg1.IsReverseRelation(r1);
    const RelationId base1 = rev1 ? kg1.ReverseOf(r1) : r1;
    for (RelationId r2 = 0; r2 < num_rel2; ++r2) {
      if (kg2.IsReverseRelation(r2) != rev1) continue;
      const RelationId base2 = rev1 ? kg2.ReverseOf(r2) : r2;
      join.labels[r1 * num_rel2 + r2] =
          relation_nodes_[base1 * num_rel2 + base2];
    }
  }
  join.offsets.assign(kg2.num_entities() + 1, 0);
  for (EntityId e2 = 0; e2 < kg2.num_entities(); ++e2) {
    join.offsets[e2 + 1] = join.offsets[e2] +
                           static_cast<uint32_t>(kg2.Neighbors(e2).size());
  }
  join.by_tail.resize(join.offsets.back());
  GlobalThreadPool().ParallelFor(kg2.num_entities(), [&](size_t e2) {
    const auto& nbrs = kg2.Neighbors(static_cast<EntityId>(e2));
    auto* row = join.by_tail.data() + join.offsets[e2];
    for (uint32_t pos = 0; pos < nbrs.size(); ++pos) {
      row[pos] = {nbrs[pos].tail, pos};
    }
    std::sort(row, row + nbrs.size());
  });

  // The join, one contiguous node range per shard, each into its own
  // buffer; per-node counts give every shard its place in the CSR.
  edge_offsets_.assign(n + 1, 0);
  struct Shard {
    size_t begin = 0;
    std::vector<Edge> edges;
  };
  std::vector<Shard> shards(GlobalThreadPool().num_threads());
  GlobalThreadPool().ParallelForShards(
      n, [&](size_t s, size_t begin, size_t end) {
        Shard& shard = shards[s];
        shard.begin = begin;
        std::vector<std::pair<uint32_t, uint32_t>> matched;
        for (size_t node = begin; node < end; ++node) {
          if (pool_[node].kind != ElementKind::kEntity) continue;
          const size_t before = shard.edges.size();
          BuildEntityNode(join, static_cast<uint32_t>(node), &shard.edges,
                          &matched);
          edge_offsets_[node + 1] =
              static_cast<uint32_t>(shard.edges.size() - before);
        }
      });
  for (size_t node = 0; node < n; ++node) {
    const size_t total = size_t{edge_offsets_[node]} + edge_offsets_[node + 1];
    DAAKG_CHECK(total < kInvalidId);
    edge_offsets_[node + 1] = static_cast<uint32_t>(total);
  }
  edges_.resize(edge_offsets_.back());
  for (Shard& shard : shards) {
    std::copy(shard.edges.begin(), shard.edges.end(),
              edges_.begin() + edge_offsets_[shard.begin]);
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

void AlignmentGraph::BuildEntityNode(
    const JoinIndex& join, uint32_t node, std::vector<Edge>* out,
    std::vector<std::pair<uint32_t, uint32_t>>* matched) const {
  const KnowledgeGraph& kg1 = task_->kg1;
  const KnowledgeGraph& kg2 = task_->kg2;
  const EntityId e1 = pool_[node].first;
  const EntityId e2 = pool_[node].second;
  const auto& nbrs2 = kg2.Neighbors(e2);
  const auto* by_tail_begin = join.by_tail.data() + join.offsets[e2];
  const auto* by_tail_end = join.by_tail.data() + join.offsets[e2 + 1];

  // Relational edges: for each KG1 edge (e1, r1, t1), the KG2 edges
  // (e2, r2, t2) whose tail t2 is a pool partner of t1 and whose relation
  // pair labels an edge, in kg2.Neighbors(e2) order.
  for (const auto& n1 : kg1.Neighbors(e1)) {
    const auto partners = PartnersOf(n1.tail);
    if (partners.empty()) continue;
    const uint32_t* labels = join.labels.data() +
                             size_t{n1.relation} * join.num_relations2;
    matched->clear();
    const auto* it = by_tail_begin;
    for (const auto& [t2, target] : partners) {
      it = std::lower_bound(
          it, by_tail_end, t2,
          [](const std::pair<EntityId, uint32_t>& entry, EntityId tail) {
            return entry.first < tail;
          });
      for (; it != by_tail_end && it->first == t2; ++it) {
        if (labels[nbrs2[it->second].relation] != kInvalidId) {
          matched->emplace_back(it->second, target);
        }
      }
    }
    std::sort(matched->begin(), matched->end());
    for (const auto& [pos, target] : *matched) {
      out->push_back(Edge{target, labels[nbrs2[pos].relation]});
    }
  }

  // Type edges to class pairs.
  const size_t num_cls2 = kg2.num_classes();
  for (ClassId c1 : kg1.ClassesOf(e1)) {
    const uint32_t* row = class_nodes_.data() + c1 * num_cls2;
    for (ClassId c2 : kg2.ClassesOf(e2)) {
      if (row[c2] != kInvalidId) out->push_back(Edge{row[c2], kTypeLabel});
    }
  }
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

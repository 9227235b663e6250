#ifndef DAAKG_INFER_HOP_SEARCH_H_
#define DAAKG_INFER_HOP_SEARCH_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace daakg {

// Hop-bounded least-cost search on dense scratch: the μ-hop path search of
// InferenceEngine::PowerFrom (over the alignment graph) and the μ−1-hop
// coarse search of PartitionSelect (over the group graph) both run on it.
//
// Costs are float sums folded left along a path. Run(rounds) relaxes, in
// each round, only from the nodes whose cost fell in the round before, at
// the cost they had when that round ended (a snapshot: relaxing from live
// costs would let one round extend a path it has just lengthened). After
// Run, cost(v) is the least folded sum over the paths of at most `rounds`
// edges beyond the seeds whose every prefix stays within max_cost. Float
// `+` is monotone, so that minimum does not depend on the order in which
// nodes or edges are visited, and neither does the touched set.
//
// One object per thread; Reset() clears what a search touched, so a scratch
// sized once serves every source.
class HopSearch {
 public:
  explicit HopSearch(size_t num_nodes)
      : cost_(num_nodes, kUnreached), queued_(num_nodes, 0) {}

  // Lowers `node`'s cost to `cost` if that is less; returns whether it did.
  // NaN and +inf never lower.
  bool Lower(uint32_t node, float cost) {
    float& slot = cost_[node];
    if (!(cost < slot)) return false;
    if (slot == kUnreached) touched_.push_back(node);
    slot = cost;
    return true;
  }

  // Up to `rounds` rounds of relaxation from every node touched so far.
  // for_each_edge(node, relax) must call relax(target, edge_cost) once per
  // outgoing edge of `node` that the search may follow.
  template <typename ForEachEdge>
  void Run(int rounds, float max_cost, const ForEachEdge& for_each_edge) {
    frontier_.clear();
    for (uint32_t node : touched_) frontier_.emplace_back(node, cost_[node]);
    for (int round = 0; round < rounds && !frontier_.empty(); ++round) {
      for (const auto& [node, cost] : frontier_) {
        for_each_edge(node, [&](uint32_t target, float edge_cost) {
          const float next_cost = cost + edge_cost;
          if (next_cost > max_cost) return;
          if (Lower(target, next_cost) && !queued_[target]) {
            queued_[target] = 1;
            next_.push_back(target);
          }
        });
      }
      frontier_.clear();
      for (uint32_t node : next_) {
        queued_[node] = 0;
        frontier_.emplace_back(node, cost_[node]);
      }
      next_.clear();
    }
  }

  // Every node with a cost, in the order each was first reached.
  const std::vector<uint32_t>& touched() const { return touched_; }
  float cost(uint32_t node) const { return cost_[node]; }

  // Forgets every cost; O(touched).
  void Reset() {
    for (uint32_t node : touched_) cost_[node] = kUnreached;
    touched_.clear();
  }

 private:
  static constexpr float kUnreached = std::numeric_limits<float>::infinity();

  std::vector<float> cost_;
  std::vector<uint8_t> queued_;  // in next_ this round
  std::vector<uint32_t> touched_;
  std::vector<std::pair<uint32_t, float>> frontier_;
  std::vector<uint32_t> next_;
};

}  // namespace daakg

#endif  // DAAKG_INFER_HOP_SEARCH_H_

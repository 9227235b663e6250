#include "active/selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace daakg {
namespace {

// Shared per-batch bookkeeping of both selection algorithms.
void RecordSelection(const SelectionResult& result) {
  static obs::Histogram* timing =
      obs::GlobalMetrics().GetHistogram("daakg.active.selection_seconds");
  static obs::Counter* selected =
      obs::GlobalMetrics().GetCounter("daakg.active.selected_pairs");
  timing->Record(result.seconds);
  selected->Increment(result.selected.size());
}

constexpr float kLazyEps = 1e-9f;
constexpr size_t kMaxSplits = 512;  // safety cap for the splitting loop

// A sparse estimated power row at group granularity: reaching `count` pool
// pairs of group `group` with inference power `power` each.
struct GroupEntry {
  uint32_t group;
  float power;
  uint32_t count;
};

// Generic lazy greedy over per-candidate gain rows; rows are re-evaluated
// against the shared expected-power accumulator `M` keyed by `key_of` the
// row entries.
template <typename Entry>
SelectionResult LazyGreedy(
    const SelectionContext& ctx, const SelectionConfig& config,
    const std::vector<std::vector<Entry>>& rows,
    const std::vector<double>& prob,
    const std::function<double(const std::vector<Entry>&,
                               const std::vector<float>&)>& gain_fn,
    const std::function<void(const std::vector<Entry>&, double,
                             std::vector<float>*)>& commit_fn,
    size_t m_size) {
  SelectionResult result;
  std::vector<float> m(m_size, 0.0f);

  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item> queue;
  for (uint32_t q = 0; q < rows.size(); ++q) {
    if ((*ctx.labeled)[q]) continue;
    if (rows[q].empty()) continue;
    queue.emplace(prob[q] * gain_fn(rows[q], m), q);
  }

  std::vector<bool> taken(rows.size(), false);
  while (result.selected.size() < config.batch_size && !queue.empty()) {
    auto [g, q] = queue.top();
    queue.pop();
    if (taken[q]) continue;
    const double fresh = prob[q] * gain_fn(rows[q], m);
    if (!queue.empty() && fresh + kLazyEps < queue.top().first) {
      queue.emplace(fresh, q);
      continue;
    }
    taken[q] = true;
    result.selected.push_back(q);
    result.objective += fresh;
    commit_fn(rows[q], prob[q], &m);
  }
  return result;
}

}  // namespace

SelectionResult GreedySelect(const SelectionContext& ctx,
                             const SelectionConfig& config) {
  // kAlways: result.seconds (and through it the selection histogram) needs
  // the elapsed time even when tracing is off; Finish() supplies the same
  // duration the trace event records.
  obs::TraceSpan span("active.greedy_select", "active", nullptr,
                      obs::TimingMode::kAlways);
  span.AddArg("batch_size", static_cast<double>(config.batch_size));
  const size_t n = ctx.engine->graph().num_nodes();

  // Line 2 of Algorithm 1: power rows for every candidate (the brute-force
  // step). PowerFrom is read-only once edge costs are precomputed, so the
  // rows can be computed in parallel.
  std::vector<PowerRow> rows(n);
  std::vector<double> prob(n, 0.0);
  GlobalThreadPool().ParallelFor(n, [&](size_t q) {
    if ((*ctx.labeled)[q]) return;
    rows[q] = ctx.engine->PowerFrom(static_cast<uint32_t>(q));
    prob[q] =
        ctx.model->MatchProbability(ctx.engine->graph().pool()[q]);
  });

  auto gain = [](const PowerRow& row, const std::vector<float>& m) {
    double g = 0.0;
    for (const auto& [q2, p] : row) g += std::max(0.0f, p - m[q2]);
    return g;
  };
  auto commit = [](const PowerRow& row, double pr, std::vector<float>* m) {
    for (const auto& [q2, p] : row) {
      (*m)[q2] += static_cast<float>(pr) * std::max(0.0f, p - (*m)[q2]);
    }
  };
  SelectionResult result = LazyGreedy<std::pair<uint32_t, float>>(
      ctx, config, rows, prob, gain, commit, n);
  result.seconds = span.Finish();
  RecordSelection(result);
  return result;
}

SelectionResult PartitionSelect(const SelectionContext& ctx,
                                const SelectionConfig& config) {
  obs::TraceSpan span("active.partition_select", "active", nullptr,
                      obs::TimingMode::kAlways);
  span.AddArg("batch_size", static_cast<double>(config.batch_size));
  const AlignmentGraph& graph = ctx.engine->graph();
  const size_t n = graph.num_nodes();
  const int mu = ctx.engine->config().max_hops;

  // --- 1-hop powers for every entity pair --------------------------------
  std::vector<std::vector<InferenceEngine::OneHopPower>> onehop(n);
  GlobalThreadPool().ParallelFor(n, [&](size_t q) {
    onehop[q] = ctx.engine->OneHopPowers(static_cast<uint32_t>(q));
  });

  // --- partition splitting (Lines 2-14) -----------------------------------
  // Entity pairs start in group 0; every schema pair is its own singleton
  // group (they have no outgoing relational edges to split on).
  std::vector<uint32_t> group_of(n, 0);
  uint32_t num_groups = 1;
  std::vector<std::vector<uint32_t>> members(1);
  for (uint32_t q = 0; q < n; ++q) {
    if (graph.pool()[q].kind == ElementKind::kEntity) {
      group_of[q] = 0;
      members[0].push_back(q);
    } else {
      group_of[q] = num_groups;
      members.push_back({q});
      ++num_groups;
    }
  }

  std::vector<bool> frozen(members.size(), false);
  bool flag = true;
  size_t splits = 0;  // schema singletons inflate num_groups; cap *splits*
  while (flag && splits < kMaxSplits) {
    flag = false;
    for (uint32_t i = 0; i < num_groups; ++i) {
      if (frozen[i] || members[i].size() < 2) continue;
      // Cross-boundary power fraction of the group. The paper's Line 9
      // takes the minimum over members; a single member with only
      // intra-group edges then forces splitting to exhaustion for every
      // rho, so we use the aggregate fraction (total outer power over
      // total power), which preserves the intent -- split groups that trap
      // too much inference power inside -- while letting rho control the
      // granularity (see DESIGN.md). The same pass counts the labels of the
      // intra-group edges for the split below, in member then edge order.
      double inner = 0.0;
      double outer = 0.0;
      std::unordered_map<uint32_t, size_t> label_count;
      for (uint32_t q : members[i]) {
        for (const auto& hp : onehop[q]) {
          if (group_of[hp.target] == i) {
            inner += hp.power;
            ++label_count[hp.label];
          } else {
            outer += hp.power;
          }
        }
      }
      if (inner + outer <= 0.0 || outer / (inner + outer) >= config.rho) {
        continue;
      }

      // Split by the relation pair labeling the most intra-group edges.
      uint32_t best_label = AlignmentGraph::kTypeLabel;
      size_t best_count = 0;
      for (const auto& [label, count] : label_count) {
        if (count > best_count) {
          best_count = count;
          best_label = label;
        }
      }
      std::vector<uint32_t> moved;
      std::vector<uint32_t> kept;
      for (uint32_t q : members[i]) {
        bool has_label_edge = false;
        for (const auto& hp : onehop[q]) {
          if (hp.label == best_label && group_of[hp.target] == i) {
            has_label_edge = true;
            break;
          }
        }
        (has_label_edge ? moved : kept).push_back(q);
      }
      if (moved.empty() || kept.empty()) {
        frozen[i] = true;  // degenerate split: stop refining this group
        continue;
      }
      members[i] = std::move(kept);
      for (uint32_t q : moved) group_of[q] = num_groups;
      members.push_back(std::move(moved));
      frozen.push_back(false);
      ++num_groups;
      ++splits;
      flag = true;
      break;  // restart the scan (Line 14)
    }
  }

  // Unlabeled pool pairs per group: the |P_j| factor of the estimate.
  std::vector<uint32_t> group_size(num_groups, 0);
  for (uint32_t q = 0; q < n; ++q) {
    if (!(*ctx.labeled)[q]) ++group_size[group_of[q]];
  }

  // --- coarse graph: min edge cost between groups --------------------------
  auto key = [](uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  };
  std::unordered_map<uint64_t, float> coarse_cost;
  for (uint32_t q = 0; q < n; ++q) {
    const uint32_t ga = group_of[q];
    for (const auto& hp : onehop[q]) {
      const uint32_t gb = group_of[hp.target];
      if (ga == gb) continue;  // self-loops are the approximation loss
      const float cost = 1.0f / hp.power - 1.0f;
      auto [it, inserted] = coarse_cost.emplace(key(ga, gb), cost);
      if (!inserted) it->second = std::min(it->second, cost);
    }
  }
  std::vector<std::vector<std::pair<uint32_t, float>>> coarse_adj(num_groups);
  for (const auto& [k, cost] : coarse_cost) {
    coarse_adj[static_cast<uint32_t>(k >> 32)].emplace_back(
        static_cast<uint32_t>(k & 0xFFFFFFFFu), cost);
  }

  const float power_floor =
      static_cast<float>(ctx.engine->config().power_floor);
  const float max_cost = 1.0f / power_floor - 1.0f + 1e-6f;

  // --- estimated power rows (Line 15) --------------------------------------
  std::vector<std::vector<GroupEntry>> rows(n);
  std::vector<double> prob(n, 0.0);
  GlobalThreadPool().ParallelFor(n, [&](size_t qi) {
    const uint32_t q = static_cast<uint32_t>(qi);
    if ((*ctx.labeled)[q]) return;
    prob[q] = ctx.model->MatchProbability(graph.pool()[q]);

    std::unordered_map<uint32_t, float> best;  // group -> min cost
    const ElementPair& pair = graph.pool()[q];
    if (pair.kind == ElementKind::kEntity) {
      for (const auto& hp : onehop[q]) {
        const float cost = 1.0f / hp.power - 1.0f;
        if (cost > max_cost) continue;
        const uint32_t g = group_of[hp.target];
        auto [it, inserted] = best.emplace(g, cost);
        if (!inserted) it->second = std::min(it->second, cost);
      }
    } else if (pair.kind == ElementKind::kRelation) {
      // Relation sources are cheap to evaluate exactly (Eq. 20).
      for (const auto& [node, power] : ctx.engine->PowerFrom(q)) {
        const float cost = 1.0f / power - 1.0f;
        const uint32_t g = group_of[node];
        auto [it, inserted] = best.emplace(g, cost);
        if (!inserted) it->second = std::min(it->second, cost);
      }
    } else {
      return;  // class pairs: no outgoing inference
    }

    // mu-1 further hops over the coarse graph.
    std::unordered_map<uint32_t, float> frontier = best;
    for (int hop = 1; hop < mu && !frontier.empty(); ++hop) {
      std::unordered_map<uint32_t, float> next;
      for (const auto& [g, cost] : frontier) {
        for (const auto& [h, c] : coarse_adj[g]) {
          const float nc = cost + c;
          if (nc > max_cost) continue;
          auto it = best.find(h);
          if (it == best.end() || nc < it->second) {
            best[h] = nc;
            next[h] = nc;
          }
        }
      }
      frontier = std::move(next);
    }
    for (const auto& [g, cost] : best) {
      const float power = 1.0f / (1.0f + cost);
      if (power > power_floor && group_size[g] > 0) {
        rows[qi].push_back(GroupEntry{g, power, group_size[g]});
      }
    }
  });

  auto gain = [](const std::vector<GroupEntry>& row,
                 const std::vector<float>& m) {
    double g = 0.0;
    for (const auto& e : row) {
      g += static_cast<double>(e.count) * std::max(0.0f, e.power - m[e.group]);
    }
    return g;
  };
  auto commit = [](const std::vector<GroupEntry>& row, double pr,
                   std::vector<float>* m) {
    for (const auto& e : row) {
      (*m)[e.group] +=
          static_cast<float>(pr) * std::max(0.0f, e.power - (*m)[e.group]);
    }
  };
  SelectionResult result = LazyGreedy<GroupEntry>(ctx, config, rows, prob,
                                                  gain, commit, num_groups);
  result.num_groups = num_groups;
  result.seconds = span.Finish();
  obs::GlobalMetrics()
      .GetGauge("daakg.active.partition_groups")
      ->Set(static_cast<double>(num_groups));
  RecordSelection(result);
  return result;
}

double EvaluateSelectionObjective(const SelectionContext& ctx,
                                  const std::vector<uint32_t>& selected) {
  const size_t n = ctx.engine->graph().num_nodes();
  std::vector<float> m(n, 0.0f);
  double total = 0.0;
  for (uint32_t q : selected) {
    const double pr =
        ctx.model->MatchProbability(ctx.engine->graph().pool()[q]);
    double gain = 0.0;
    for (const auto& [q2, p] : ctx.engine->PowerFrom(q)) {
      const float delta = std::max(0.0f, p - m[q2]);
      gain += delta;
      m[q2] += static_cast<float>(pr) * delta;
    }
    total += pr * gain;
  }
  return total;
}

}  // namespace daakg

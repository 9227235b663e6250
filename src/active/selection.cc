#include "active/selection.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <unordered_map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "infer/hop_search.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace daakg {
namespace {

// Shared per-batch bookkeeping of both selection algorithms.
void RecordSelection(const SelectionResult& result) {
  static obs::Counter* selected =
      obs::GlobalMetrics().GetCounter("daakg.active.selected_pairs");
  selected->Increment(result.selected.size());
}

constexpr float kLazyEps = 1e-9f;
constexpr size_t kMaxSplits = 512;  // safety cap for the splitting loop

// Generic lazy greedy over per-candidate gain rows; rows are re-evaluated
// against the shared expected-power accumulator `m`. gain(row, m) is a
// row's gain, commit(row, pr, &m) folds a selected row into `m`.
template <typename Row, typename Gain, typename Commit>
SelectionResult LazyGreedy(const SelectionContext& ctx,
                           const SelectionConfig& config,
                           const std::vector<Row>& rows,
                           const std::vector<double>& prob, const Gain& gain,
                           const Commit& commit, size_t m_size) {
  SelectionResult result;
  std::vector<float> m(m_size, 0.0f);

  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item> queue;
  for (uint32_t q = 0; q < rows.size(); ++q) {
    if ((*ctx.labeled)[q]) continue;
    if (rows[q].empty()) continue;
    queue.emplace(prob[q] * gain(rows[q], m), q);
  }

  std::vector<bool> taken(rows.size(), false);
  while (result.selected.size() < config.batch_size && !queue.empty()) {
    auto [g, q] = queue.top();
    queue.pop();
    if (taken[q]) continue;
    const double fresh = prob[q] * gain(rows[q], m);
    if (!queue.empty() && fresh + kLazyEps < queue.top().first) {
      queue.emplace(fresh, q);
      continue;
    }
    taken[q] = true;
    result.selected.push_back(q);
    result.objective += fresh;
    commit(rows[q], prob[q], &m);
  }
  return result;
}

}  // namespace

SelectionResult GreedySelect(const SelectionContext& ctx,
                             const SelectionConfig& config) {
  obs::TraceSpan span("active.greedy_select", "active");
  span.AddArg("batch_size", static_cast<double>(config.batch_size));
  const size_t n = ctx.engine->graph().num_nodes();

  // Line 2 of Algorithm 1: power rows for every candidate (the brute-force
  // step). PowerFrom is read-only once edge costs are precomputed, so the
  // rows can be computed in parallel, each shard on its own search scratch.
  std::vector<PowerRow> rows(n);
  std::vector<double> prob(n, 0.0);
  GlobalThreadPool().ParallelForShards(
      n, [&](size_t, size_t begin, size_t end) {
        HopSearch search(n);
        for (size_t q = begin; q < end; ++q) {
          if ((*ctx.labeled)[q]) continue;
          rows[q] = ctx.engine->PowerFrom(static_cast<uint32_t>(q), &search);
          prob[q] =
              ctx.model->MatchProbability(ctx.engine->graph().pool()[q]);
        }
      });

  // Every row entry has its own target, so the order of a row does not
  // matter to `m`; see DESIGN.md §8 for why it does not matter to the gain
  // either.
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
  SelectionResult result = LazyGreedy(ctx, config, rows, prob, gain, commit, n);
  result.seconds = span.Finish();
  RecordSelection(result);
  return result;
}

// Algorithm 2's state for one edge-cost table and rho that does not read
// the labeled mask (DESIGN.md §8): the one-hop powers, the split and the
// coarse graph, built once, and each source's match probability and coarse
// row, filled the first time a call needs them. `mu` guards every field.
struct PartitionPlan {
  using Entry = std::pair<uint32_t, float>;  // (group, power)

  std::mutex mu;
  bool built = false;
  InferenceEngine::OneHopCsr onehop;
  std::vector<uint32_t> group_of;  // per pool node
  uint32_t num_groups = 0;
  // CSR of the coarse graph: the least edge cost from each group to every
  // group it reaches, in first-reached order.
  std::vector<uint32_t> coarse_offsets;
  std::vector<std::pair<uint32_t, float>> coarse_adj;
  // Per pool node, once filled[q]: Pr[match] and the estimated power row
  // (Line 15) as (group, power) entries above the power floor, in
  // first-reached order.
  std::vector<uint8_t> filled;
  std::vector<double> prob;
  std::vector<std::vector<Entry>> rows;
};

namespace {

// The plan of the engine's edge-cost table at `rho`: the slot's while the
// slot holds that table, else an unshared one.
std::shared_ptr<PartitionPlan> PlanFor(const SelectionContext& ctx,
                                       double rho) {
  const std::shared_ptr<PoolCache> slot = ctx.model->pool_cache();
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->edge_costs.get() != ctx.engine->edge_costs()) {
    return std::make_shared<PartitionPlan>();
  }
  for (const auto& [key, plan] : slot->partitions) {
    if (std::bit_cast<uint64_t>(key) == std::bit_cast<uint64_t>(rho)) {
      return plan;
    }
  }
  return slot->partitions
      .emplace_back(rho, std::make_shared<PartitionPlan>())
      .second;
}

// Lines 2-14 and the coarse graph: fills everything of `plan` but the rows.
void BuildPartition(const InferenceEngine& engine, double rho,
                    PartitionPlan* plan) {
  const AlignmentGraph& graph = engine.graph();
  const size_t n = graph.num_nodes();

  // --- 1-hop powers for every entity pair --------------------------------
  plan->onehop = engine.OneHopPowers();
  const InferenceEngine::OneHopCsr& onehop = plan->onehop;

  // Labels index the dense counts at their pool node; type edges at n.
  auto label_slot = [n](uint32_t label) {
    return label == AlignmentGraph::kTypeLabel ? n : size_t{label};
  };

  // --- partition splitting (Lines 2-14) -----------------------------------
  // Entity pairs start in group 0; every schema pair is its own singleton
  // group (they have no outgoing relational edges to split on).
  std::vector<uint32_t>& group_of = plan->group_of;
  group_of.assign(n, 0);
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
  std::vector<size_t> label_count(n + 1, 0);  // by label slot
  std::vector<uint32_t> seen_labels;          // first-seen order
  std::vector<uint8_t> moving(n, 0);
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
      for (uint32_t q : members[i]) {
        for (uint32_t e = onehop.offsets[q]; e < onehop.offsets[q + 1]; ++e) {
          if (group_of[onehop.target[e]] == i) {
            inner += onehop.power[e];
            if (label_count[label_slot(onehop.label[e])]++ == 0) {
              seen_labels.push_back(onehop.label[e]);
            }
          } else {
            outer += onehop.power[e];
          }
        }
      }
      // Split by the relation pair labeling the most intra-group edges.
      // Ties go to the first in the iteration order of a hash map that
      // gets the distinct labels in first-seen order. That order depends on
      // the insertion sequence only, so ties resolve as in a map that
      // counts every intra-group edge (DESIGN.md §8).
      uint32_t best_label = AlignmentGraph::kTypeLabel;
      size_t best_count = 0;
      const bool split =
          !(inner + outer <= 0.0 || outer / (inner + outer) >= rho);
      if (split) {
        std::unordered_map<uint32_t, size_t> counts;
        for (uint32_t label : seen_labels) {
          counts.emplace(label, label_count[label_slot(label)]);
        }
        for (const auto& [label, count] : counts) {
          if (count > best_count) {
            best_count = count;
            best_label = label;
          }
        }
      }
      for (uint32_t label : seen_labels) label_count[label_slot(label)] = 0;
      seen_labels.clear();
      if (!split) continue;

      // Members with an intra-group one-hop entry of the best label move
      // out. The graph lists the best label's edges: a type edge leads to a
      // class pair, alone in its group, so a label with a count is a
      // relation pair's. Each candidate source is checked against its
      // entries, since an edge without positive power has none.
      DAAKG_CHECK(best_count == 0 || best_label != AlignmentGraph::kTypeLabel);
      auto moves = [&](uint32_t q) {
        for (uint32_t e = onehop.offsets[q]; e < onehop.offsets[q + 1]; ++e) {
          if (onehop.label[e] == best_label &&
              group_of[onehop.target[e]] == i) {
            return true;
          }
        }
        return false;
      };
      if (best_count > 0) {
        for (const auto& [source, target] :
             graph.EdgesOfRelationPair(best_label)) {
          if (!moving[source] && group_of[source] == i &&
              group_of[target] == i && moves(source)) {
            moving[source] = 1;
          }
        }
      }
      std::vector<uint32_t> moved;
      std::vector<uint32_t> kept;
      for (uint32_t q : members[i]) {
        (moving[q] ? moved : kept).push_back(q);
        moving[q] = 0;
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

  plan->num_groups = num_groups;

  // --- coarse graph: min edge cost between groups --------------------------
  // One CSR row per group, its targets in first-reached order, built on a
  // dense per-group minimum over the members' cross-group entries.
  std::vector<uint32_t>& coarse_offsets = plan->coarse_offsets;
  std::vector<std::pair<uint32_t, float>>& coarse_adj = plan->coarse_adj;
  coarse_offsets.assign(num_groups + 1, 0);
  {
    HopSearch least(num_groups);
    for (uint32_t ga = 0; ga < num_groups; ++ga) {
      for (uint32_t q : members[ga]) {
        for (uint32_t e = onehop.offsets[q]; e < onehop.offsets[q + 1]; ++e) {
          const uint32_t gb = group_of[onehop.target[e]];
          if (ga == gb) continue;  // self-loops are the approximation loss
          least.Lower(gb, 1.0f / onehop.power[e] - 1.0f);
        }
      }
      for (uint32_t gb : least.touched()) {
        coarse_adj.emplace_back(gb, least.cost(gb));
      }
      least.Reset();
      coarse_offsets[ga + 1] = static_cast<uint32_t>(coarse_adj.size());
    }
  }

  plan->filled.assign(n, 0);
  plan->prob.assign(n, 0.0);
  plan->rows.assign(n, {});
  plan->built = true;
}

// Line 15 for source `q`: its match probability and its estimated power
// row, a mu-hop search of which the first hop is exact and the rest run on
// the coarse graph. `search` is sized to the group count and left reset.
void FillRow(const SelectionContext& ctx, uint32_t q, HopSearch* search,
             PartitionPlan* plan) {
  const AlignmentGraph& graph = ctx.engine->graph();
  const InferenceConfig& icfg = ctx.engine->config();
  const float power_floor = static_cast<float>(icfg.power_floor);
  const float max_cost = 1.0f / power_floor - 1.0f + 1e-6f;
  const InferenceEngine::OneHopCsr& onehop = plan->onehop;
  const std::vector<uint32_t>& group_of = plan->group_of;

  plan->filled[q] = 1;
  const ElementPair& pair = graph.pool()[q];
  plan->prob[q] = ctx.model->MatchProbability(pair);
  if (pair.kind == ElementKind::kEntity) {
    for (uint32_t e = onehop.offsets[q]; e < onehop.offsets[q + 1]; ++e) {
      const float cost = 1.0f / onehop.power[e] - 1.0f;
      if (cost > max_cost) continue;
      search->Lower(group_of[onehop.target[e]], cost);
    }
  } else if (pair.kind == ElementKind::kRelation) {
    // Relation sources are cheap to evaluate exactly (Eq. 20).
    for (const auto& [node, power] : ctx.engine->PowerFrom(q)) {
      search->Lower(group_of[node], 1.0f / power - 1.0f);
    }
  } else {
    return;  // class pairs: no outgoing inference
  }

  // mu-1 further hops over the coarse graph.
  search->Run(icfg.max_hops - 1, max_cost, [&](uint32_t g, auto&& relax) {
    for (uint32_t k = plan->coarse_offsets[g]; k < plan->coarse_offsets[g + 1];
         ++k) {
      relax(plan->coarse_adj[k].first, plan->coarse_adj[k].second);
    }
  });
  // Sized exactly: the plan keeps every row while the model is unchanged.
  auto power_of = [search](uint32_t g) {
    return 1.0f / (1.0f + search->cost(g));
  };
  const std::vector<uint32_t>& touched = search->touched();
  std::vector<PartitionPlan::Entry>& row = plan->rows[q];
  row.reserve(static_cast<size_t>(
      std::count_if(touched.begin(), touched.end(),
                    [&](uint32_t g) { return power_of(g) > power_floor; })));
  for (uint32_t g : touched) {
    if (power_of(g) > power_floor) row.emplace_back(g, power_of(g));
  }
  search->Reset();
}

}  // namespace

SelectionResult PartitionSelect(const SelectionContext& ctx,
                                const SelectionConfig& config) {
  static obs::Counter* builds =
      obs::GlobalMetrics().GetCounter("daakg.active.partition_builds");
  obs::TraceSpan span("active.partition_select", "active");
  span.AddArg("batch_size", static_cast<double>(config.batch_size));
  // The plan's match probabilities are the engine's model's.
  DAAKG_CHECK(ctx.model == ctx.engine->model());
  const size_t n = ctx.engine->graph().num_nodes();
  const std::vector<bool>& labeled = *ctx.labeled;

  const std::shared_ptr<PartitionPlan> shared = PlanFor(ctx, config.rho);
  PartitionPlan& plan = *shared;
  std::lock_guard<std::mutex> lock(plan.mu);
  if (!plan.built) {
    builds->Increment();
    BuildPartition(*ctx.engine, config.rho, &plan);
  }
  const uint32_t num_groups = plan.num_groups;

  // Unlabeled pool pairs per group: the |P_j| factor of the estimate; and
  // the unlabeled sources whose rows no call has needed yet.
  std::vector<uint32_t> group_size(num_groups, 0);
  std::vector<uint32_t> missing;
  for (uint32_t q = 0; q < n; ++q) {
    if (labeled[q]) continue;
    ++group_size[plan.group_of[q]];
    if (!plan.filled[q]) missing.push_back(q);
  }
  GlobalThreadPool().ParallelForShards(
      missing.size(), [&](size_t, size_t begin, size_t end) {
        HopSearch search(num_groups);
        for (size_t i = begin; i < end; ++i) {
          FillRow(ctx, missing[i], &search, &plan);
        }
      });

  // A row entry stands for the group's unlabeled pairs: the estimate of
  // Line 15 reaches group_size[g] of them. An entry of a group without one
  // adds nothing and is skipped, and a row left with no entry is empty, so
  // it is never selected (DESIGN.md §8).
  using Entry = PartitionPlan::Entry;
  std::vector<std::span<const Entry>> rows(n);
  for (uint32_t q = 0; q < n; ++q) {
    const std::vector<Entry>& row = plan.rows[q];
    if (!labeled[q] && std::any_of(row.begin(), row.end(), [&](Entry e) {
          return group_size[e.first] > 0;
        })) {
      rows[q] = row;
    }
  }

  // As for GreedySelect, the order of a row's entries matters to neither
  // the gain nor `m` (DESIGN.md §8).
  auto gain = [&group_size](std::span<const Entry> row,
                            const std::vector<float>& m) {
    double g = 0.0;
    for (const auto& [group, power] : row) {
      if (group_size[group] == 0) continue;
      g += static_cast<double>(group_size[group]) *
           std::max(0.0f, power - m[group]);
    }
    return g;
  };
  auto commit = [&group_size](std::span<const Entry> row, double pr,
                              std::vector<float>* m) {
    for (const auto& [group, power] : row) {
      if (group_size[group] == 0) continue;
      (*m)[group] +=
          static_cast<float>(pr) * std::max(0.0f, power - (*m)[group]);
    }
  };
  SelectionResult result =
      LazyGreedy(ctx, config, rows, plan.prob, gain, commit, num_groups);
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
  HopSearch search(n);
  double total = 0.0;
  for (uint32_t q : selected) {
    const double pr =
        ctx.model->MatchProbability(ctx.engine->graph().pool()[q]);
    double gain = 0.0;
    for (const auto& [q2, p] : ctx.engine->PowerFrom(q, &search)) {
      const float delta = std::max(0.0f, p - m[q2]);
      gain += delta;
      m[q2] += static_cast<float>(pr) * delta;
    }
    total += pr * gain;
  }
  return total;
}

}  // namespace daakg

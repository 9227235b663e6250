#include "core/active_loop.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "infer/alignment_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace daakg {
namespace {

uint64_t PairKey(const ElementPair& p) {
  return (static_cast<uint64_t>(p.kind) << 62) |
         (static_cast<uint64_t>(p.first) << 31) | p.second;
}

}  // namespace

Status ActiveLoopConfig::Validate() const {
  if (batch_size == 0) {
    return InvalidArgumentError("batch_size must be positive");
  }
  if (initial_seed_fraction < 0.0 || initial_seed_fraction > 1.0) {
    return InvalidArgumentError("initial_seed_fraction must be in [0, 1]");
  }
  double prev = 0.0;
  for (double f : report_fractions) {
    if (f <= 0.0 || f > 1.0) {
      return InvalidArgumentError("report_fractions must be in (0, 1]");
    }
    if (f <= prev) {
      return InvalidArgumentError(
          "report_fractions must be strictly increasing");
    }
    prev = f;
  }
  if (pool.top_n == 0) {
    return InvalidArgumentError("pool.top_n must be positive");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<ActiveAlignmentLoop>> ActiveAlignmentLoop::Create(
    const AlignmentTask* task, DaakgAligner* aligner,
    SelectionStrategy* strategy, Oracle* oracle,
    const ActiveLoopConfig& config) {
  if (task == nullptr) return InvalidArgumentError("task must not be null");
  if (aligner == nullptr) {
    return InvalidArgumentError("aligner must not be null");
  }
  if (strategy == nullptr) {
    return InvalidArgumentError("strategy must not be null");
  }
  if (oracle == nullptr) return InvalidArgumentError("oracle must not be null");
  DAAKG_RETURN_IF_ERROR(config.Validate());
  return std::make_unique<ActiveAlignmentLoop>(task, aligner, strategy, oracle,
                                               config);
}

ActiveAlignmentLoop::ActiveAlignmentLoop(const AlignmentTask* task,
                                         DaakgAligner* aligner,
                                         SelectionStrategy* strategy,
                                         Oracle* oracle,
                                         const ActiveLoopConfig& config)
    : task_(task),
      aligner_(aligner),
      strategy_(strategy),
      oracle_(oracle),
      config_(config) {}

std::vector<ActiveRoundReport> ActiveAlignmentLoop::Run() {
  static obs::Counter* oracle_queries =
      obs::GlobalMetrics().GetCounter("daakg.active.oracle_queries");
  static obs::Counter* oracle_matches =
      obs::GlobalMetrics().GetCounter("daakg.active.oracle_matches");
  Rng rng(config_.seed);
  std::vector<ActiveRoundReport> reports;
  const size_t total_matches = task_->gold_entities.size() +
                               task_->gold_relations.size() +
                               task_->gold_classes.size();
  DAAKG_CHECK_GT(total_matches, 0u);

  // Jump-start seed (labeled "for free" by the same oracle budget).
  SeedAlignment seed = task_->SampleSeed(config_.initial_seed_fraction, &rng);
  size_t matches_found =
      seed.entities.size() + seed.relations.size() + seed.classes.size();
  size_t queries = matches_found;
  oracle_queries->Increment(queries);
  oracle_matches->Increment(matches_found);
  std::unordered_set<uint64_t> labeled_keys;
  for (const auto& [a, b] : seed.entities) {
    labeled_keys.insert(PairKey(ElementPair{ElementKind::kEntity, a, b}));
  }
  for (const auto& [a, b] : seed.relations) {
    labeled_keys.insert(PairKey(ElementPair{ElementKind::kRelation, a, b}));
  }
  for (const auto& [a, b] : seed.classes) {
    labeled_keys.insert(PairKey(ElementPair{ElementKind::kClass, a, b}));
  }

  aligner_->Train(seed);

  const double last_fraction = config_.report_fractions.empty()
                                   ? 0.5
                                   : config_.report_fractions.back();
  const size_t target_matches = static_cast<size_t>(
      last_fraction * static_cast<double>(total_matches));
  size_t max_queries = config_.max_queries > 0
                           ? config_.max_queries
                           : 8 * std::max<size_t>(target_matches, 1);
  size_t next_report = 0;

  // Phase wall-times accumulated since the previous checkpoint; attached
  // to the next report and then restarted.
  RoundTelemetry window;
  // Reports every checkpoint the matched fraction has reached; with `all`,
  // every checkpoint left.
  auto report_checkpoints = [&](bool all) {
    const double fraction = static_cast<double>(matches_found) /
                            static_cast<double>(total_matches);
    while (next_report < config_.report_fractions.size() &&
           (all || fraction >= config_.report_fractions[next_report])) {
      ActiveRoundReport report;
      report.fraction = config_.report_fractions[next_report];
      report.labels_used = queries;
      report.matches_found = matches_found;
      report.eval = aligner_->Evaluate();
      report.telemetry = window;
      reports.push_back(std::move(report));
      ++next_report;
      // A second checkpoint crossed by the same round reports an empty
      // window (no work happened between them), keeping the last pool size.
      const size_t last_pool = window.pool_size;
      window = RoundTelemetry{};
      window.pool_size = last_pool;
    }
  };
  report_checkpoints(/*all=*/false);

  while (next_report < config_.report_fractions.size() &&
         queries < max_queries) {
    ++window.rounds;
    // Each phase's Finish() feeds the RoundTelemetry window with the very
    // duration its trace event records.
    obs::TraceSpan round_span("core.active_round", "core");
    round_span.AddArg("round", static_cast<double>(window.rounds));
    {
      obs::TraceSpan refresh_span("core.round_refresh", "core");
      // Train/FineTune end with a refresh, so this one returns at once
      // unless a parameter moved since.
      aligner_->RefreshCaches();
      window.refresh_seconds += refresh_span.Finish();
    }

    // Pool (reused while no parameter moved), graph and engine against the
    // refreshed model.
    obs::TraceSpan pool_span("core.round_pool_build", "core");
    PoolGenerator pool_gen(task_, aligner_->joint(), config_.pool);
    std::vector<ElementPair> pool = pool_gen.Generate();
    window.pool_build_seconds += pool_span.Finish();
    window.pool_size = pool.size();
    obs::TraceSpan graph_span("core.round_graph", "core");
    AlignmentGraph graph(task_, pool);
    InferenceEngine engine(&graph, aligner_->joint(),
                           aligner_->config().infer);
    engine.PrecomputeEdgeCosts();
    graph_span.Finish();

    std::vector<bool> labeled(pool.size(), false);
    size_t unlabeled = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      labeled[i] = labeled_keys.count(PairKey(pool[i])) > 0;
      if (!labeled[i]) ++unlabeled;
    }
    if (unlabeled == 0) {
      LOG_WARNING << "active loop: pool exhausted with "
                  << matches_found << " matches labeled";
      break;
    }

    SelectionContext ctx{&engine, aligner_->joint(), &labeled};
    obs::TraceSpan select_span("core.round_selection", "core");
    std::vector<uint32_t> batch =
        strategy_->SelectBatch(ctx, config_.batch_size, &rng);
    window.selection_seconds += select_span.Finish();
    if (batch.empty()) break;

    SeedAlignment new_matches;
    for (uint32_t q : batch) {
      const ElementPair& pair = pool[q];
      labeled_keys.insert(PairKey(pair));
      ++queries;
      oracle_queries->Increment();
      if (!oracle_->Label(pair)) continue;
      ++matches_found;
      oracle_matches->Increment();
      new_matches.Add(pair);
    }
    if (!new_matches.entities.empty() || !new_matches.relations.empty() ||
        !new_matches.classes.empty()) {
      obs::TraceSpan fine_tune_span("core.round_fine_tune", "core");
      aligner_->FineTune(new_matches);
      window.fine_tune_seconds += fine_tune_span.Finish();
    }
    report_checkpoints(/*all=*/false);
  }

  // If the budget ran out before the last checkpoint, report the final
  // state at the remaining checkpoints so every series has equal length.
  report_checkpoints(/*all=*/true);
  return reports;
}

}  // namespace daakg

#ifndef DAAKG_CORE_ACTIVE_LOOP_H_
#define DAAKG_CORE_ACTIVE_LOOP_H_

#include <memory>
#include <vector>

#include "active/oracle.h"
#include "active/pool.h"
#include "active/strategies.h"
#include "core/daakg.h"

namespace daakg {

struct ActiveLoopConfig {
  size_t batch_size = 50;  // B element pairs per oracle round
  // Rejects non-positive batch sizes, fractions outside [0, 1] and
  // unsorted/out-of-range report_fractions with InvalidArgumentError.
  Status Validate() const;
  // Fraction of gold entity matches labeled before active learning starts
  // (the jump-start seed); also counts toward the x-axis fractions.
  double initial_seed_fraction = 0.05;
  // Report checkpoints: evaluation is recorded when the labeled-match
  // fraction crosses each value (Fig. 5's x-axis).
  std::vector<double> report_fractions = {0.1, 0.2, 0.3, 0.4, 0.5};
  // Hard cap on oracle queries (protects weak strategies that rarely hit
  // matches from unbounded loops).
  size_t max_queries = 0;  // 0 => 8x the matches needed for the last checkpoint
  PoolConfig pool;
  uint64_t seed = 97;
};

// Per-checkpoint observability: phase wall-times and loop counters
// accumulated since the previous checkpoint (all seconds).
struct RoundTelemetry {
  size_t rounds = 0;          // oracle rounds contributing to this span
  size_t pool_size = 0;       // candidate-pool size of the last round
  double refresh_seconds = 0.0;
  double pool_build_seconds = 0.0;
  double selection_seconds = 0.0;
  double fine_tune_seconds = 0.0;
};

// One Fig. 5 measurement point.
struct ActiveRoundReport {
  double fraction = 0.0;     // labeled matches / gold matches
  size_t labels_used = 0;    // oracle queries consumed so far
  size_t matches_found = 0;  // labeled matches so far
  EvalResult eval;
  RoundTelemetry telemetry;
};

// Drives pool generation -> batch selection -> oracle labeling ->
// fine-tuning until the last report checkpoint is reached (Sect. 2.2
// workflow). The alignment graph and inference engine are rebuilt each
// round from the refreshed model; the pool is reused from the model's pool
// slot while no parameter moved (a round whose batch found no match skips
// fine-tuning) and cut afresh otherwise.
class ActiveAlignmentLoop {
 public:
  // Validated construction: null-checks every raw-pointer dependency,
  // rejects a task without gold matches and runs
  // ActiveLoopConfig::Validate() up front, so misconfiguration
  // surfaces before any training instead of crashing mid-run.
  static StatusOr<std::unique_ptr<ActiveAlignmentLoop>> Create(
      const AlignmentTask* task, DaakgAligner* aligner,
      SelectionStrategy* strategy, Oracle* oracle,
      const ActiveLoopConfig& config);

  ActiveAlignmentLoop(const AlignmentTask* task, DaakgAligner* aligner,
                      SelectionStrategy* strategy, Oracle* oracle,
                      const ActiveLoopConfig& config);

  // Runs the full loop (including initial seed + training) and returns the
  // checkpoint reports in order.
  std::vector<ActiveRoundReport> Run();

 private:
  const AlignmentTask* task_;
  DaakgAligner* aligner_;
  SelectionStrategy* strategy_;
  Oracle* oracle_;
  ActiveLoopConfig config_;
};

}  // namespace daakg

#endif  // DAAKG_CORE_ACTIVE_LOOP_H_

#ifndef DAAKG_ACTIVE_SELECTION_H_
#define DAAKG_ACTIVE_SELECTION_H_

#include <cstdint>
#include <vector>

#include "infer/inference_power.h"

namespace daakg {

struct SelectionConfig {
  size_t batch_size = 100;  // B
  double rho = 0.9;         // Algorithm 2 partition-quality threshold
};

// Shared context for one batch-selection call.
struct SelectionContext {
  const InferenceEngine* engine;          // edge costs precomputed
  const JointAlignmentModel* model;       // caches ready
  const std::vector<bool>* labeled;       // per pool node: already labeled?
};

// Result of a batch selection, with bookkeeping for the Fig. 7 comparison.
struct SelectionResult {
  std::vector<uint32_t> selected;  // pool node indexes, selection order
  // The algorithm's own estimate of the expected overall inference power of
  // the selected set (Eq. 28 objective).
  double objective = 0.0;
  double seconds = 0.0;
  // Algorithm 2 only: number of groups the pool was partitioned into.
  size_t num_groups = 0;
};

// Algorithm 1: greedy expected-inference-power maximization with lazy
// (priority-queue) gain re-evaluation, valid because the objective is
// increasing sub-modular (Theorem 6.1).
//
// The expectation over oracle outcomes is tracked incrementally: after
// selecting q, the running expected power M(q') of every pair q' in q's
// power row is raised by Pr[match(q)] * |I(q'|q) - M(q')|_+, which is the
// gain expression derived in Appendix A.
SelectionResult GreedySelect(const SelectionContext& ctx,
                             const SelectionConfig& config);

// Algorithm 2: graph-partitioning-based selection. Splits the pool into
// groups until every pair keeps at least a rho fraction of its 1-hop
// inference power across group boundaries, estimates power rows at group
// granularity (mu-hop search over the coarse graph), and runs the greedy
// loop on the estimates. Approximation ratio rho^mu (1 - 1/e)
// (Theorem 6.2).
//
// Everything but the per-group counts of unlabeled pairs and the greedy
// loop is independent of the labeled mask. It is kept per rho in the
// model's planning slot beside the engine's edge-cost table, so calls on
// an unchanged model share it, each source's row filled by the first call
// that has the source unlabeled (DESIGN.md §8). ctx.model must be the
// engine's model, with the caches it was built on;
// daakg.active.partition_builds counts the plans built.
SelectionResult PartitionSelect(const SelectionContext& ctx,
                                const SelectionConfig& config);

// Exact expected overall inference power of an already-chosen set, computed
// with full PowerFrom rows. Used to report Fig. 7's "relative inference
// power" of Algorithm 2 against Algorithm 1.
double EvaluateSelectionObjective(const SelectionContext& ctx,
                                  const std::vector<uint32_t>& selected);

}  // namespace daakg

#endif  // DAAKG_ACTIVE_SELECTION_H_

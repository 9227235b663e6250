#ifndef DAAKG_BASELINES_PARIS_H_
#define DAAKG_BASELINES_PARIS_H_

#include "baselines/baseline_result.h"
#include "kg/alignment_task.h"

namespace daakg {

// PARIS-lite (Suchanek et al., VLDB 2012): probabilistic, training-free
// alignment of instances, relations and classes by fixed-point iteration.
//
//   * relation equivalence is estimated from how often matched entity pairs
//     co-occur as (head, tail) of the two relations, normalized by the
//     smaller relation extension;
//   * entity match probability aggregates edge evidence
//     1 - prod(1 - P(h=h') * P(r=r') * fun(r')) over shared neighbors,
//     where fun() is relation functionality;
//   * class equivalence is the harmonic blend of both membership overlap
//     directions, weighted by entity match probabilities.
//
// Deviation from the original (documented in DESIGN.md): real PARIS
// bootstraps from shared literal values; the synthetic benchmark KGs carry
// no literals beyond names, so PARIS-lite is anchored on name similarity
// plus the same seed matches every supervised competitor receives.
class Paris {
 public:
  explicit Paris(const AlignmentTask* task);

  BaselineResult Run(const SeedAlignment& seed);

 private:
  const AlignmentTask* task_;
};

}  // namespace daakg

#endif  // DAAKG_BASELINES_PARIS_H_

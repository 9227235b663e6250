#ifndef DAAKG_BASELINES_BERTMAP_LITE_H_
#define DAAKG_BASELINES_BERTMAP_LITE_H_

#include "baselines/baseline_result.h"
#include "kg/alignment_task.h"

namespace daakg {

// BERTMap-lite (He et al., AAAI 2022): a class-only aligner following
// BERTMap's pipeline shape — lexical candidate scoring, per-class best
// assignment, then a one-to-one repair step — with the BERT cross-encoder
// replaced by a character-n-gram + token-overlap similarity (no offline
// BERT weights are available; see DESIGN.md). Like the original, it is
// strong when class names share a language and collapses on cross-lingual
// names, which is exactly the behaviour Table 3 records.
class BertMapLite {
 public:
  explicit BertMapLite(const AlignmentTask* task);

  // Classes only: entity/relation metrics in the result stay zero.
  BaselineResult Run(const SeedAlignment& seed);

 private:
  const AlignmentTask* task_;
};

}  // namespace daakg

#endif  // DAAKG_BASELINES_BERTMAP_LITE_H_

// Correctness checks of the end-to-end benchmark. Each check recomputes a
// result apart from the library (double precision, brute force, the task's
// gold pairs) or tests a property the method must have; none compares with a
// stored copy of earlier output.
#ifndef DAAKG_PERFBENCH_CHECKS_H_
#define DAAKG_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "active/pool.h"
#include "align/joint_model.h"
#include "kg/alignment_task.h"
#include "kg/ids.h"

namespace perfbench {

using IdPairs = std::vector<std::pair<uint32_t, uint32_t>>;

// Collects the failed checks of one operation (one training with its
// extraction, one active round, or one planned batch).
class OpChecks {
 public:
  explicit OpChecks(std::string op) : op_(std::move(op)) {}
  // Records `what` as a failure when `ok` is false.
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  // Prints every failure to stderr, prefixed with the operation name.
  void Report() const;

 private:
  std::string op_;
  std::vector<std::string> failures_;
};

// Gold pairs minus the labeled ones, or all gold pairs when the labeled set
// covers them (the test split Evaluate documents).
IdPairs TestPairs(const IdPairs& gold, const IdPairs& labeled);

struct Ranking {
  double hits_at_1 = 0.0;
  double mrr = 0.0;
};

// Entity H@1 and MRR over `test`, from cosines of MappedEntityRepr1 and
// EntityRepr2 computed in double; rank = 1 + number of KG2 entities scoring
// strictly greater than the gold one.
Ranking RecomputeEntityRanking(const daakg::JointAlignmentModel& joint,
                               const IdPairs& test);

struct Prf {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

// Precision, recall and F1 of `predicted` against `gold`.
Prf ScoreAgainstGold(const IdPairs& predicted, const IdPairs& gold);

// Empty when every pair has first < n1 and second < n2 and no id appears
// twice on either side; otherwise a description of the first violation.
std::string OneToOneViolation(const IdPairs& pairs, size_t n1, size_t n2);

// A key that identifies an element pair of any kind.
uint64_t PairKey(const daakg::ElementPair& p);

// Share of the task's gold entity pairs that appear in `pool`, where `gold`
// holds the PairKeys of the task's gold pairs. Allocates nothing, so it may
// run inside a timed loop without moving its peak memory.
double GoldRecall(const std::vector<daakg::ElementPair>& pool,
                  const std::unordered_set<uint64_t>& gold,
                  const daakg::AlignmentTask& task);

// Empty when `batch` holds min(batch_size, unlabeled) distinct pool indices,
// none of them labeled; otherwise the first violation.
std::string BatchViolation(const std::vector<uint32_t>& batch,
                           const std::vector<bool>& labeled,
                           size_t batch_size);

// Compares the entity pairs of `pool` on the KG1 rows `rows` with a brute-
// force mutual top-`top_n` over PoolGenerator::Signature in double. A pair
// whose score lies within a small tolerance of either top-N cut-off may go
// either way (ties). Also reports an entity pair pooled twice. Empty when
// they agree.
std::string PoolTopNViolation(const daakg::PoolGenerator& generator,
                              const daakg::AlignmentTask& task,
                              const std::vector<daakg::ElementPair>& pool,
                              size_t top_n,
                              const std::vector<uint32_t>& rows);

}  // namespace perfbench

#endif  // DAAKG_PERFBENCH_CHECKS_H_

#ifndef DAAKG_TENSOR_TOPK_H_
#define DAAKG_TENSOR_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/matrix.h"

namespace daakg {

// Blocked similarity / streaming top-K kernels for the candidate-pool and
// metrics hot paths. The active-learning loop re-ranks all |E1| x |E2|
// entity pairs every round; these kernels stream the similarity matrix
// A * B^T through cache-sized tiles instead of materializing it, keeping
// only bounded top-K state per row and per column (see DESIGN.md,
// "Blocked similarity kernels").

// One (index, score) entry of a top-K list.
struct ScoredIndex {
  uint32_t index;
  float score;

  bool operator==(const ScoredIndex& other) const {
    return index == other.index && score == other.score;
  }
};

// Bounded streaming top-K accumulator: keeps the k largest scores seen so
// far in a min-heap whose root is the weakest kept entry, so a Push that
// does not qualify is O(1) and a qualifying one is O(log k). Ordering
// matches TopKIndices: descending score, ties broken toward the lower
// index.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(size_t k);

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

  // Offers (index, score); kept iff it beats the current weakest entry or
  // fewer than k entries are held. With k == 0 every Push is a no-op.
  void Push(uint32_t index, float score);

  // Folds every kept entry of `other` into this accumulator.
  void Merge(const TopKAccumulator& other);

  // The weakest kept score, or -inf while fewer than k entries are held
  // (i.e. the qualification threshold for Push).
  float Threshold() const;

  // Kept entries in descending score order (ties by ascending index).
  std::vector<ScoredIndex> SortedEntries() const;
  // Kept indexes in the same order.
  std::vector<uint32_t> SortedIndices() const;

 private:
  size_t k_;
  std::vector<ScoredIndex> heap_;
};

// Per-row and per-column top-K lists of a similarity matrix, each sorted in
// descending score order.
struct SimTopK {
  std::vector<std::vector<ScoredIndex>> row_topk;  // size a.rows()
  std::vector<std::vector<ScoredIndex>> col_topk;  // size b.rows()
};

// Tile shape of the blocked kernels. The defaults keep one column tile of
// B (col_block * dim floats) plus one row tile of A resident in L2 while
// each B row is reused row_block times.
struct BlockedKernelOptions {
  size_t row_block = 64;
  size_t col_block = 256;
  // Shard rows across the global thread pool (per-shard column state is
  // merged after the pass). Disable for single-threaded determinism tests.
  bool parallel = true;
};

// Streams sim = a * b^T (rows of `a` against rows of `b`; equal cols())
// through cache-sized tiles, maintaining the top-`row_k` columns of every
// row and the top-`col_k` rows of every column in one pass. The full
// similarity matrix is never materialized: peak additional memory is
// O(row_block * col_block) per shard for the tile walk plus
// O(row_k * a.rows() + col_k * b.rows()) for the results. Either k may be
// 0 to skip that direction.
SimTopK BlockedSimTopK(const Matrix& a, const Matrix& b, size_t row_k,
                       size_t col_k,
                       const BlockedKernelOptions& options = {});

// Blocked dense product out = a * b^T (out is resized to
// a.rows() x b.rows()). Same tiling and inner loop as BlockedSimTopK, for
// callers that do need the full matrix (e.g. name-blended baselines).
void BlockedMatMulNT(const Matrix& a, const Matrix& b, Matrix* out,
                     const BlockedKernelOptions& options = {});

// Row and column statistics of a similarity matrix S: the maxima and the
// log-sum-exps of S / z (the Eq. 6 entity weights and the Eqs. 11-12
// calibration denominators). Entries are assumed <= 1 (cosines), so
//
//   LSE = 1/z + log sum exp((s - 1) / z)
//
// needs no max pass: every term is <= 1 and is computed once per cell for
// both the row and the column sum. A term underflows only below
// exp(-2/z), which DaakgConfig::Validate keeps in the normal range.
struct SimStats {
  std::vector<float> row_max;
  std::vector<float> col_max;
  std::vector<double> row_lse;
  std::vector<double> col_lse;
};

// Streams S = a * b^T through the tiles of BlockedSimVisit and returns its
// statistics without materializing S: extra memory is O(threads * b.rows())
// for column partials. Column sums are kept per fixed block of rows and
// folded in block order, so the result is bitwise independent of the thread
// count and of options.parallel. Cells are the BlockedMatMulNT cells.
SimStats BlockedSimStats(const Matrix& a, const Matrix& b, double z,
                         const BlockedKernelOptions& options = {});

// The same statistics, by the same routine, over a materialized matrix
// (the small relation and class similarity matrices).
SimStats DenseSimStats(const Matrix& sim, double z);

// Streams the tiles of a * b^T without materializing anything, invoking
// visit(r, c0, sims, count) once per (row, tile) with `count` consecutive
// similarities for columns [c0, c0 + count). Rows are sharded across the
// thread pool when options.parallel; all calls for one row come from the
// same shard, in ascending c0 order. Cell values are bitwise identical to
// the corresponding BlockedMatMulNT entries under the same options.
using SimTileVisitor =
    std::function<void(size_t r, size_t c0, const float* sims, size_t count)>;
void BlockedSimVisit(const Matrix& a, const Matrix& b,
                     const SimTileVisitor& visit,
                     const BlockedKernelOptions& options = {});

// Number of entries strictly greater than `threshold` in values[0, n) —
// the rank kernel of EvaluateRanking. Dispatched to the active SIMD
// backend; the count is exact on every backend.
size_t CountGreater(const float* values, size_t n, float threshold);

}  // namespace daakg

#endif  // DAAKG_TENSOR_TOPK_H_

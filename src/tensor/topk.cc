#include "tensor/topk.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"

namespace daakg {
namespace {

// Heap ordering: `a` is strictly worse than `b` when it scores lower, or
// scores equal with a higher index. std::push_heap builds a max-heap under
// this comparison, so the root is the *worst* kept entry.
inline bool Worse(const ScoredIndex& a, const ScoredIndex& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

}  // namespace

TopKAccumulator::TopKAccumulator(size_t k) : k_(k) { heap_.reserve(k); }

void TopKAccumulator::Push(uint32_t index, float score) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    // Fill phase: append without sifting; the heap property is only needed
    // (and only relied upon — see Threshold) once the buffer is full.
    heap_.push_back(ScoredIndex{index, score});
    if (heap_.size() == k_) std::make_heap(heap_.begin(), heap_.end(), Worse);
    return;
  }
  const ScoredIndex& weakest = heap_.front();
  if (score < weakest.score ||
      (score == weakest.score && index > weakest.index)) {
    return;
  }
  // Replace the root and sift down in one pass (pop_heap + push_heap would
  // traverse the tree twice).
  const ScoredIndex item{index, score};
  const size_t n = heap_.size();
  size_t i = 0;
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    const size_t right = child + 1;
    if (right < n && Worse(heap_[child], heap_[right])) child = right;
    if (!Worse(item, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = item;
}

void TopKAccumulator::Merge(const TopKAccumulator& other) {
  for (const ScoredIndex& e : other.heap_) Push(e.index, e.score);
}

float TopKAccumulator::Threshold() const {
  // During the fill phase the buffer is unordered and everything is
  // admissible; once full, the root is the weakest kept entry.
  if (heap_.size() < k_) return -std::numeric_limits<float>::infinity();
  return heap_.front().score;
}

std::vector<ScoredIndex> TopKAccumulator::SortedEntries() const {
  std::vector<ScoredIndex> out = heap_;
  std::sort(out.begin(), out.end(), [](const ScoredIndex& a,
                                       const ScoredIndex& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  });
  return out;
}

std::vector<uint32_t> TopKAccumulator::SortedIndices() const {
  std::vector<ScoredIndex> entries = SortedEntries();
  std::vector<uint32_t> out;
  out.reserve(entries.size());
  for (const ScoredIndex& e : entries) out.push_back(e.index);
  return out;
}

size_t CountGreater(const float* values, size_t n, float threshold) {
  return simd::ActiveOps().count_greater(values, n, threshold);
}

namespace {

// Hard cap on col_block so each tile row of similarities fits in a stack
// buffer (and comfortably in L1).
constexpr size_t kMaxColBlock = 512;

// Walks the [row_begin, row_end) x [0, n2) region of a * b^T in
// row_block x col_block tiles, calling visit(r, c0, sims, count) once per
// (row, tile) with the tile row's `count` consecutive similarities. Tiles
// keep the col_block rows of `b` hot in cache while each is reused
// row_block times. The dots for a whole tile row are computed into a local
// buffer through the active kernel table before the visitor runs — keeping
// the micro-kernel loop free of consumer state is what lets it live in
// vector registers. ops.dot4 column c is bitwise ops.dot(a, b_c), so the
// 4-wide and remainder columns agree exactly.
template <typename Visitor>
void TiledSimWalk(const Matrix& a, const Matrix& b, size_t row_begin,
                  size_t row_end, const BlockedKernelOptions& options,
                  Visitor&& visit) {
  const simd::Ops& ops = simd::ActiveOps();
  const size_t n2 = b.rows();
  const size_t dim = a.cols();
  const size_t row_block = std::max<size_t>(1, options.row_block);
  const size_t col_block =
      std::min(kMaxColBlock, std::max<size_t>(1, options.col_block));
  float sims[kMaxColBlock];
  for (size_t r0 = row_begin; r0 < row_end; r0 += row_block) {
    const size_t r1 = std::min(row_end, r0 + row_block);
    for (size_t c0 = 0; c0 < n2; c0 += col_block) {
      const size_t c1 = std::min(n2, c0 + col_block);
      for (size_t r = r0; r < r1; ++r) {
        const float* ar = a.RowData(r);
        size_t c = c0;
        for (; c + 4 <= c1; c += 4) {
          ops.dot4(ar, b.RowData(c), b.RowData(c + 1), b.RowData(c + 2),
                   b.RowData(c + 3), dim, &sims[c - c0]);
        }
        for (; c < c1; ++c) {
          sims[c - c0] = ops.dot(ar, b.RowData(c), dim);
        }
        visit(r, c0, sims, c1 - c0);
      }
    }
  }
}

}  // namespace

SimTopK BlockedSimTopK(const Matrix& a, const Matrix& b, size_t row_k,
                       size_t col_k, const BlockedKernelOptions& options) {
  static obs::Counter* cells =
      obs::GlobalMetrics().GetCounter("daakg.tensor.sim_cells");
  obs::TraceSpan span("tensor.sim_topk", "tensor");

  DAAKG_CHECK_EQ(a.cols(), b.cols());
  const size_t n1 = a.rows();
  const size_t n2 = b.rows();
  row_k = std::min(row_k, n2);
  col_k = std::min(col_k, n1);

  SimTopK out;
  out.row_topk.resize(n1);
  out.col_topk.resize(n2);
  if (n1 == 0 || n2 == 0) return out;
  cells->Increment(static_cast<uint64_t>(n1) * n2);

  // Row accumulators are owned per row (disjoint across shards); column
  // accumulators see every shard's rows, so each shard streams into its own
  // copy and the copies are merged after the pass. Admission thresholds are
  // mirrored into flat float arrays so the overwhelmingly common rejection
  // is a single compare against a contiguous load instead of a heap probe;
  // `>=` (not `>`) keeps score-tie admission decisions inside Push, whose
  // index tie-break matches TopKIndices.
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::vector<TopKAccumulator> row_acc(n1, TopKAccumulator(row_k));
  std::vector<float> row_thr(n1, kNegInf);
  ThreadPool& pool = GlobalThreadPool();
  const size_t shards =
      options.parallel ? std::min(n1, pool.num_threads()) : 1;
  std::vector<std::vector<TopKAccumulator>> shard_cols(
      shards, std::vector<TopKAccumulator>(col_k > 0 ? n2 : 0,
                                           TopKAccumulator(col_k)));
  std::vector<std::vector<float>> shard_col_thr(
      shards, std::vector<float>(col_k > 0 ? n2 : 0, kNegInf));

  auto run_shard = [&](size_t shard, size_t begin, size_t end) {
    std::vector<TopKAccumulator>& cols = shard_cols[shard];
    std::vector<float>& col_thr = shard_col_thr[shard];
    TiledSimWalk(
        a, b, begin, end, options,
        [&](size_t r, size_t c, const float* sims, size_t count) {
          float rt = row_thr[r];
          for (size_t j = 0; j < count; ++j) {
            const float sim = sims[j];
            if (sim >= rt) {
              row_acc[r].Push(static_cast<uint32_t>(c + j), sim);
              rt = row_acc[r].Threshold();
            }
            if (col_k > 0 && sim >= col_thr[c + j]) {
              cols[c + j].Push(static_cast<uint32_t>(r), sim);
              col_thr[c + j] = cols[c + j].Threshold();
            }
          }
          row_thr[r] = rt;
        });
  };
  if (shards <= 1) {
    run_shard(0, 0, n1);
  } else {
    // ParallelForShards splits [0, n1) into at most num_threads() shards
    // with the same index arithmetic as `shards` above.
    pool.ParallelForShards(n1, run_shard);
  }

  for (size_t r = 0; r < n1; ++r) {
    out.row_topk[r] = row_acc[r].SortedEntries();
  }
  if (col_k > 0) {
    for (size_t c = 0; c < n2; ++c) {
      TopKAccumulator& merged = shard_cols[0][c];
      for (size_t s = 1; s < shards; ++s) merged.Merge(shard_cols[s][c]);
      out.col_topk[c] = merged.SortedEntries();
    }
  }
  return out;
}

namespace {

// Rows per column-partial block of the statistics pass. A fixed block size
// (not the shard layout) fixes the column summation order.
constexpr size_t kStatsRowBlock = 256;

// The one statistics routine. walk_rows(begin, end, visit) must call
// visit(r, c0, sims, count) for every cell of rows [begin, end), each row's
// tiles in ascending c0 order and, per column, rows in ascending order.
// Row blocks run in waves of one block per thread; each block owns a column
// partial, and the partials are folded in block order after each wave.
template <typename WalkRows>
SimStats StreamSimStats(size_t n1, size_t n2, double z, bool parallel,
                        WalkRows&& walk_rows) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  // row_lse / col_lse hold the sums of exp((s - 1) / z) until the end.
  SimStats out{std::vector<float>(n1, kNegInf), std::vector<float>(n2, kNegInf),
               std::vector<double>(n1, 0.0), std::vector<double>(n2, 0.0)};

  struct Partial {
    std::vector<double> sum;
    std::vector<float> max;
  };
  ThreadPool& pool = GlobalThreadPool();
  const size_t num_blocks = (n1 + kStatsRowBlock - 1) / kStatsRowBlock;
  const size_t wave =
      std::min(num_blocks, parallel ? pool.num_threads() : size_t{1});
  std::vector<Partial> partials(wave);
  for (size_t b0 = 0; b0 < num_blocks; b0 += wave) {
    const size_t blocks = std::min(wave, num_blocks - b0);
    auto run_block = [&](size_t i) {
      Partial& p = partials[i];
      p.sum.assign(n2, 0.0);
      p.max.assign(n2, kNegInf);
      const size_t begin = (b0 + i) * kStatsRowBlock;
      const size_t end = std::min(n1, begin + kStatsRowBlock);
      walk_rows(begin, end, [&](size_t r, size_t c0, const float* sims,
                                size_t count) {
        float rmax = out.row_max[r];
        double rsum = out.row_lse[r];
        double* csum = p.sum.data() + c0;
        float* cmax = p.max.data() + c0;
        for (size_t j = 0; j < count; ++j) {
          const float s = sims[j];
          const double e = std::exp((static_cast<double>(s) - 1.0) / z);
          rsum += e;
          csum[j] += e;
          rmax = std::max(rmax, s);
          cmax[j] = std::max(cmax[j], s);
        }
        out.row_max[r] = rmax;
        out.row_lse[r] = rsum;
      });
    };
    pool.ParallelFor(blocks, run_block);
    for (size_t i = 0; i < blocks; ++i) {
      for (size_t c = 0; c < n2; ++c) {
        out.col_lse[c] += partials[i].sum[c];
        out.col_max[c] = std::max(out.col_max[c], partials[i].max[c]);
      }
    }
  }

  for (double& v : out.row_lse) v = 1.0 / z + std::log(v);
  for (double& v : out.col_lse) v = 1.0 / z + std::log(v);
  return out;
}

}  // namespace

SimStats BlockedSimStats(const Matrix& a, const Matrix& b, double z,
                         const BlockedKernelOptions& options) {
  static obs::Counter* cells =
      obs::GlobalMetrics().GetCounter("daakg.tensor.sim_cells");
  obs::TraceSpan span("tensor.sim_stats", "tensor");
  DAAKG_CHECK_EQ(a.cols(), b.cols());
  cells->Increment(static_cast<uint64_t>(a.rows()) * b.rows());
  return StreamSimStats(
      a.rows(), b.rows(), z, options.parallel,
      [&](size_t begin, size_t end, auto&& visit) {
        TiledSimWalk(a, b, begin, end, options, visit);
      });
}

SimStats DenseSimStats(const Matrix& sim, double z) {
  return StreamSimStats(sim.rows(), sim.cols(), z, /*parallel=*/false,
                        [&](size_t begin, size_t end, auto&& visit) {
                          for (size_t r = begin; r < end; ++r) {
                            visit(r, 0, sim.RowData(r), sim.cols());
                          }
                        });
}

void BlockedSimVisit(const Matrix& a, const Matrix& b,
                     const SimTileVisitor& visit,
                     const BlockedKernelOptions& options) {
  DAAKG_CHECK_EQ(a.cols(), b.cols());
  const size_t n1 = a.rows();
  if (n1 == 0 || b.rows() == 0) return;
  if (options.parallel) {
    GlobalThreadPool().ParallelForShards(
        n1, [&](size_t /*shard*/, size_t begin, size_t end) {
          TiledSimWalk(a, b, begin, end, options, visit);
        });
  } else {
    TiledSimWalk(a, b, 0, n1, options, visit);
  }
}

}  // namespace daakg

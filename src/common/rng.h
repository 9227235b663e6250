#ifndef DAAKG_COMMON_RNG_H_
#define DAAKG_COMMON_RNG_H_

#include <cstdint>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace daakg {

// Deterministic, seedable pseudo-random number generator (xoshiro256**,
// seeded via SplitMix64). Every stochastic component of the library draws
// from an explicitly passed Rng so experiments are reproducible bit-for-bit.
//
// Not thread-safe; use one Rng per thread (see Fork()).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  // Re-seeds the generator deterministically from `seed`.
  void Seed(uint64_t seed);

  // Uniform random 64-bit value.
  uint64_t NextUint64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  // Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t NextUint64(uint64_t bound);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Bernoulli draw with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  // Draws from Zipf distribution over {0, ..., n-1} with exponent s > 0.
  // Smaller indexes are more likely. The O(n) CDF is built once per
  // distinct (n, s) and kept, so interleaving parameters stays O(log n) a
  // draw.
  size_t NextZipf(size_t n, double s);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->size() < 2) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = NextUint64(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  // Samples `k` distinct indexes from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  // Returns an independent generator deterministically derived from this
  // one's state; use to hand per-thread RNGs out of a master seed.
  Rng Fork();

 private:
  uint64_t state_[4];
  // Zipf CDFs by (n, s).
  std::map<std::pair<size_t, double>, std::vector<double>> zipf_cdfs_;
};

}  // namespace daakg

#endif  // DAAKG_COMMON_RNG_H_

#include "common/rng.h"

#include <algorithm>
#include <numeric>

namespace daakg {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  DAAKG_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextGaussian() {
  // Box-Muller; draws two uniforms, discards the second output for
  // simplicity (statelessness beats the 2x speed-up here).
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

size_t Rng::NextZipf(size_t n, double s) {
  DAAKG_CHECK_GT(n, 0u);
  std::vector<double>& cdf = zipf_cdfs_[{n, s}];
  if (cdf.empty()) {
    cdf.resize(n);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf[i] = acc;
    }
    for (auto& c : cdf) c /= acc;
  }
  double u = NextDouble();
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<size_t>(
      std::min<ptrdiff_t>(it - cdf.begin(), static_cast<ptrdiff_t>(n) - 1));
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  DAAKG_CHECK_LE(k, n);
  if (k == 0) return {};
  // For small k relative to n, use a hash-free partial Fisher-Yates over a
  // sparse permutation is overkill; a full index vector is fine at our
  // scales (n <= a few hundred thousand).
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + NextUint64(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace daakg

#include "tensor/ops.h"

#include <algorithm>
#include <numeric>

namespace daakg {

std::vector<size_t> TopKIndices(const std::vector<float>& scores, size_t k) {
  k = std::min(k, scores.size());
  std::vector<size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k),
                    idx.end(), [&scores](size_t a, size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace daakg

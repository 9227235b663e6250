#ifndef DAAKG_TENSOR_OPS_H_
#define DAAKG_TENSOR_OPS_H_

#include <cstddef>
#include <vector>

namespace daakg {

// Indices of the k largest values in `scores`, in descending score order.
// Ties broken by lower index. k is clamped to scores.size().
std::vector<size_t> TopKIndices(const std::vector<float>& scores, size_t k);

}  // namespace daakg

#endif  // DAAKG_TENSOR_OPS_H_

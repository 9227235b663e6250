#include "active/strategies.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/ops.h"

namespace daakg {
namespace {

// PageRank damping factor and power iterations.
constexpr double kDamping = 0.85;
constexpr int kIterations = 30;
// ActiveEA: weight of the neighbors' mean uncertainty.
constexpr double kNeighborWeight = 0.5;

// Top `batch_size` unlabeled nodes by `score`, descending.
std::vector<uint32_t> TopUnlabeled(const SelectionContext& ctx,
                                   const std::vector<float>& score,
                                   size_t batch_size) {
  std::vector<uint32_t> idx;
  idx.reserve(score.size());
  for (uint32_t q = 0; q < score.size(); ++q) {
    if (!(*ctx.labeled)[q]) idx.push_back(q);
  }
  const size_t k = std::min(batch_size, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k),
                    idx.end(), [&score](uint32_t a, uint32_t b) {
                      if (score[a] != score[b]) return score[a] > score[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

double PairEntropy(const SelectionContext& ctx, uint32_t q) {
  const double p =
      ctx.model->MatchProbability(ctx.engine->graph().pool()[q]);
  const double pc = std::clamp(p, 1e-9, 1.0 - 1e-9);
  return -pc * std::log(pc) - (1.0 - pc) * std::log(1.0 - pc);
}

}  // namespace

std::vector<uint32_t> RandomStrategy::SelectBatch(const SelectionContext& ctx,
                                                  size_t batch_size,
                                                  Rng* rng) {
  std::vector<uint32_t> unlabeled;
  for (uint32_t q = 0; q < ctx.labeled->size(); ++q) {
    if (!(*ctx.labeled)[q]) unlabeled.push_back(q);
  }
  rng->Shuffle(&unlabeled);
  unlabeled.resize(std::min(batch_size, unlabeled.size()));
  return unlabeled;
}

std::vector<uint32_t> DegreeStrategy::SelectBatch(const SelectionContext& ctx,
                                                  size_t batch_size,
                                                  Rng* /*rng*/) {
  const AlignmentGraph& graph = ctx.engine->graph();
  std::vector<float> degree(graph.num_nodes(), 0.0f);
  for (uint32_t q = 0; q < graph.num_nodes(); ++q) {
    degree[q] += static_cast<float>(graph.Out(q).size());
    for (const auto& e : graph.Out(q)) degree[e.target] += 1.0f;
  }
  return TopUnlabeled(ctx, degree, batch_size);
}

std::vector<uint32_t> PageRankStrategy::SelectBatch(
    const SelectionContext& ctx, size_t batch_size, Rng* /*rng*/) {
  const AlignmentGraph& graph = ctx.engine->graph();
  const size_t n = graph.num_nodes();
  std::vector<float> rank(n, 1.0f / static_cast<float>(n));
  std::vector<float> next(n);
  for (int it = 0; it < kIterations; ++it) {
    std::fill(next.begin(), next.end(),
              static_cast<float>((1.0 - kDamping) / static_cast<double>(n)));
    for (uint32_t q = 0; q < n; ++q) {
      const auto& out = graph.Out(q);
      if (out.empty()) {
        // Dangling mass spreads uniformly; approximated by self-retention
        // to keep the iteration O(E).
        next[q] += static_cast<float>(kDamping) * rank[q];
        continue;
      }
      const float share = static_cast<float>(kDamping) * rank[q] /
                          static_cast<float>(out.size());
      for (const auto& e : out) next[e.target] += share;
    }
    std::swap(rank, next);
  }
  return TopUnlabeled(ctx, rank, batch_size);
}

std::vector<uint32_t> UncertaintyStrategy::SelectBatch(
    const SelectionContext& ctx, size_t batch_size, Rng* /*rng*/) {
  std::vector<float> score(ctx.labeled->size(), 0.0f);
  for (uint32_t q = 0; q < score.size(); ++q) {
    if (!(*ctx.labeled)[q]) {
      score[q] = static_cast<float>(PairEntropy(ctx, q));
    }
  }
  return TopUnlabeled(ctx, score, batch_size);
}

std::vector<uint32_t> ActiveEaStrategy::SelectBatch(
    const SelectionContext& ctx, size_t batch_size, Rng* /*rng*/) {
  const AlignmentGraph& graph = ctx.engine->graph();
  const size_t n = graph.num_nodes();
  std::vector<float> own(n, 0.0f);
  for (uint32_t q = 0; q < n; ++q) own[q] = static_cast<float>(PairEntropy(ctx, q));
  std::vector<float> score = own;
  for (uint32_t q = 0; q < n; ++q) {
    const auto& out = graph.Out(q);
    if (out.empty()) continue;
    float nb = 0.0f;
    for (const auto& e : out) nb += own[e.target];
    score[q] += static_cast<float>(kNeighborWeight) * nb /
                static_cast<float>(out.size());
  }
  return TopUnlabeled(ctx, score, batch_size);
}

std::vector<uint32_t> DaakgStrategy::SelectBatch(const SelectionContext& ctx,
                                                 size_t batch_size,
                                                 Rng* /*rng*/) {
  SelectionConfig config;
  config.batch_size = batch_size;
  SelectionResult result = use_partitioning_ ? PartitionSelect(ctx, config)
                                             : GreedySelect(ctx, config);
  return result.selected;
}

std::vector<std::unique_ptr<SelectionStrategy>> MakeAllStrategies() {
  std::vector<std::unique_ptr<SelectionStrategy>> out;
  out.push_back(std::make_unique<RandomStrategy>());
  out.push_back(std::make_unique<DegreeStrategy>());
  out.push_back(std::make_unique<PageRankStrategy>());
  out.push_back(std::make_unique<UncertaintyStrategy>());
  out.push_back(std::make_unique<ActiveEaStrategy>());
  out.push_back(std::make_unique<DaakgStrategy>(/*use_partitioning=*/true));
  return out;
}

}  // namespace daakg

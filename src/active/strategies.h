#ifndef DAAKG_ACTIVE_STRATEGIES_H_
#define DAAKG_ACTIVE_STRATEGIES_H_

#include <memory>
#include <string>
#include <vector>

#include "active/selection.h"
#include "common/rng.h"

namespace daakg {

// A batch selection strategy for active alignment. DAAKG's own algorithms
// (Greedy / Partition, Sect. 6.2) and the competitors of Sect. 7.2
// (Random, Degree, PageRank, Uncertainty, ActiveEA) share this interface so
// the Fig. 5 bench can sweep them uniformly.
class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;
  virtual std::string name() const = 0;
  // Picks up to `batch_size` unlabeled pool nodes.
  virtual std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                            size_t batch_size, Rng* rng) = 0;
};

// Uniformly random unlabeled pairs (the default training-set construction).
class RandomStrategy : public SelectionStrategy {
 public:
  std::string name() const override { return "Random"; }
  std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                    size_t batch_size, Rng* rng) override;
};

// Largest alignment-graph degree (in + out).
class DegreeStrategy : public SelectionStrategy {
 public:
  std::string name() const override { return "Degree"; }
  std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                    size_t batch_size, Rng* rng) override;
};

// Highest PageRank score on the alignment graph.
class PageRankStrategy : public SelectionStrategy {
 public:
  std::string name() const override { return "PageRank"; }
  std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                    size_t batch_size, Rng* rng) override;
};

// Largest prediction entropy of the calibrated match probability
// (classic uncertainty sampling, as in Corleone / DTAL).
class UncertaintyStrategy : public SelectionStrategy {
 public:
  std::string name() const override { return "Uncertainty"; }
  std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                    size_t batch_size, Rng* rng) override;
};

// ActiveEA-inspired structural uncertainty sampling (Liu et al., 2021):
// a pair's score is its own uncertainty plus the propagated uncertainty of
// its alignment-graph neighbors, so labeling it also reduces neighborhood
// uncertainty.
class ActiveEaStrategy : public SelectionStrategy {
 public:
  std::string name() const override { return "ActiveEA"; }
  std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                    size_t batch_size, Rng* rng) override;
};

// DAAKG batch selection, Algorithm 1 (greedy) or Algorithm 2 (partition,
// with the default SelectionConfig::rho).
class DaakgStrategy : public SelectionStrategy {
 public:
  explicit DaakgStrategy(bool use_partitioning)
      : use_partitioning_(use_partitioning) {}
  std::string name() const override {
    return use_partitioning_ ? "DAAKG" : "DAAKG-greedy";
  }
  std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                    size_t batch_size, Rng* rng) override;

 private:
  bool use_partitioning_;
};

// All Fig. 5 strategies, DAAKG last.
std::vector<std::unique_ptr<SelectionStrategy>> MakeAllStrategies();

}  // namespace daakg

#endif  // DAAKG_ACTIVE_STRATEGIES_H_

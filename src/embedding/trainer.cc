#include "embedding/trainer.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "embedding/negative_sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace daakg {
namespace {

constexpr float kLearningRate = 0.05f;
constexpr size_t kNumNegatives = 4;  // corrupted tails per positive
// Positives whose negatives the ER pass draws before stepping through them.
// No TrainPair draws, so drawing ahead takes from the RNG in the same order.
constexpr size_t kNegativeChunk = 256;

}  // namespace

void KgeTrainer::TrainEpoch(Rng* rng, KgeTrainStats* stats) {
  static obs::Counter* train_steps =
      obs::GlobalMetrics().GetCounter("daakg.embedding.kge_train_steps");
  obs::TraceSpan span("embedding.kge_epoch", "embedding");
  const KnowledgeGraph& kg = model_->kg();
  NegativeSampler sampler(&kg);

  model_->OnEpochStart();

  // --- entity-relation pass (Eq. 1) --------------------------------------
  std::vector<size_t> order(kg.triplets().size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  double er_loss = 0.0;
  size_t er_steps = 0;
  {
    obs::TraceSpan er_span("embedding.er_pass", "embedding");
    std::vector<EntityId> negs(kNegativeChunk * kNumNegatives);
    for (size_t begin = 0; begin < order.size(); begin += kNegativeChunk) {
      const size_t end = std::min(order.size(), begin + kNegativeChunk);
      for (size_t i = begin; i < end; ++i) {
        sampler.CorruptTails(kg.triplets()[order[i]], rng, kNumNegatives,
                             &negs[(i - begin) * kNumNegatives]);
      }
      for (size_t i = begin; i < end; ++i) {
        const Triplet& pos = kg.triplets()[order[i]];
        const EntityId* pos_negs = &negs[(i - begin) * kNumNegatives];
        for (size_t k = 0; k < kNumNegatives; ++k) {
          er_loss += model_->TrainPair(pos, pos_negs[k], kLearningRate);
          ++er_steps;
        }
      }
    }
    er_span.AddArg("steps", static_cast<double>(er_steps));
  }

  // --- entity-class pass (Eq. 3) ------------------------------------------
  double ec_loss = 0.0;
  size_t ec_steps = 0;
  if (ec_model_ != nullptr) {
    obs::TraceSpan ec_span("embedding.ec_pass", "embedding");
    std::vector<size_t> type_order(kg.type_triplets().size());
    std::iota(type_order.begin(), type_order.end(), 0);
    rng->Shuffle(&type_order);
    for (size_t idx : type_order) {
      const TypeTriplet& tt = kg.type_triplets()[idx];
      for (size_t k = 0; k < kNumNegatives; ++k) {
        EntityId neg = sampler.CorruptEntityOfClass(tt.cls, rng);
        ec_loss +=
            ec_model_->TrainPair(tt.entity, neg, tt.cls, kLearningRate);
        ++ec_steps;
      }
    }
    ec_span.AddArg("steps", static_cast<double>(ec_steps));
  }

  model_->NormalizeEntities();
  model_->NormalizeRelations();

  train_steps->Increment(er_steps + ec_steps);
  ++stats->epochs;
  stats->final_er_loss = er_steps > 0 ? er_loss / static_cast<double>(er_steps) : 0.0;
  stats->final_ec_loss = ec_steps > 0 ? ec_loss / static_cast<double>(ec_steps) : 0.0;
}

KgeTrainStats KgeTrainer::Train(Rng* rng) {
  KgeTrainStats stats;
  for (int epoch = 0; epoch < model_->config().epochs; ++epoch) {
    TrainEpoch(rng, &stats);
  }
  return stats;
}

std::array<KgeTrainStats, 2> TrainSideBySide(KgeTrainer* trainer1, Rng* rng1,
                                             KgeTrainer* trainer2, Rng* rng2,
                                             int epochs) {
  KgeTrainer* trainers[2] = {trainer1, trainer2};
  Rng* rngs[2] = {rng1, rng2};
  std::array<KgeTrainStats, 2> stats;
  GlobalThreadPool().ParallelFor(2, [&](size_t side) {
    for (int e = 0; e < epochs; ++e) {
      trainers[side]->TrainEpoch(rngs[side], &stats[side]);
    }
  });
  return stats;
}

}  // namespace daakg

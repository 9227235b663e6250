#ifndef DAAKG_EMBEDDING_TRANSE_H_
#define DAAKG_EMBEDDING_TRANSE_H_

#include <string>

#include "embedding/kge_model.h"

namespace daakg {

// TransE (Bordes et al., 2013): f_er(h, r, t) = ||h + r - t||_2.
// The geometric workhorse of the paper; also the model whose inference-power
// bounds are exact (Sect. 5.2), since the local-optimum relation vector is
// the relation embedding itself.
class TransE : public KgeModel {
 public:
  TransE(const KnowledgeGraph* kg, const KgeConfig& config)
      : KgeModel(kg, config),
        scratch_{Vector(config.dim), Vector(config.dim), Vector(config.dim)} {}

  std::string name() const override { return "transe"; }

  float Score(EntityId head, RelationId relation,
              EntityId tail) const override;

  float TrainPair(const Triplet& pos, EntityId negative_tail,
                  float lr) override;

  Vector LocalOptimumRelation(EntityId head, EntityId tail) const override;

  // r~ = r and d = f_er(h, r, t): the residual makes the bound
  // ||t - (h + r~)|| <= d hold exactly (the paper uses d = 0 for TransE;
  // keeping the true residual preserves the inequality and the Table 6
  // ordering).
  void EstimateEdgeBound(EntityId head, RelationId relation, EntityId tail,
                         int num_samples, Rng* rng, Vector* r_tilde,
                         float* d) const override;

 private:
  // TrainPair's per-step buffers (the residuals h + r - t and h + r - t',
  // scaled in place into their gradients, and the head gradient), allocated
  // once: a model is trained from one thread at a time.
  struct StepScratch {
    Vector res_pos, res_neg, g_h;
  };
  StepScratch scratch_;
};

}  // namespace daakg

#endif  // DAAKG_EMBEDDING_TRANSE_H_

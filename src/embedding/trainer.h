#ifndef DAAKG_EMBEDDING_TRAINER_H_
#define DAAKG_EMBEDDING_TRAINER_H_

#include <array>

#include "common/rng.h"
#include "embedding/entity_class_model.h"
#include "embedding/kge_model.h"

namespace daakg {

struct KgeTrainStats {
  int epochs = 0;
  double final_er_loss = 0.0;  // mean margin loss over the last epoch
  double final_ec_loss = 0.0;
};

// Margin-ranking trainer for one KG's embedding model: optimizes
// O_er(T) (Eq. 1) over relational triplets and, when an EntityClassModel is
// attached, O_ec(T_type) (Eq. 3) over type triplets in the same epoch loop.
class KgeTrainer {
 public:
  // `ec_model` may be null (ablation "w/o class embeddings" trains only the
  // entity-relation structure).
  KgeTrainer(KgeModel* model, EntityClassModel* ec_model)
      : model_(model), ec_model_(ec_model) {}

  // Runs config().epochs epochs of SGD with per-epoch triplet shuffling,
  // entity renormalization and (for GNN models) aggregation refresh.
  KgeTrainStats Train(Rng* rng);

  // Runs a single epoch; exposed so callers interleaving alignment steps
  // (semi-supervised joint training) can drive the loop themselves.
  void TrainEpoch(Rng* rng, KgeTrainStats* stats);

 private:
  KgeModel* model_;
  EntityClassModel* ec_model_;
};

// Runs `epochs` epochs of `trainer1` drawing from `rng1` and, at the same
// time, of `trainer2` drawing from `rng2`: two tasks on the global thread
// pool, one per side. The trainers must touch disjoint parameters (one per
// KG; models and entity-class models are per KG), so each side ends exactly
// as it would have run alone. Returns each side's stats.
std::array<KgeTrainStats, 2> TrainSideBySide(KgeTrainer* trainer1, Rng* rng1,
                                             KgeTrainer* trainer2, Rng* rng2,
                                             int epochs);

}  // namespace daakg

#endif  // DAAKG_EMBEDDING_TRAINER_H_

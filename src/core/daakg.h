#ifndef DAAKG_CORE_DAAKG_H_
#define DAAKG_CORE_DAAKG_H_

#include <memory>
#include <string>
#include <vector>

#include "align/joint_model.h"
#include "align/metrics.h"
#include "embedding/entity_class_model.h"
#include "embedding/kge_model.h"
#include "embedding/trainer.h"
#include "infer/inference_power.h"
#include "kg/alignment_task.h"

namespace daakg {

// Greedy-matching similarity threshold used when extracting/evaluating
// final alignments (F1).
inline constexpr float kMatchThreshold = 0.5f;

// Top-level configuration of the DAAKG pipeline (Fig. 2).
struct DaakgConfig {
  // Base entity-relation embedding model. Config files carrying a string
  // name go through ParseKgeModelKind().
  KgeModelKind kge_model = KgeModelKind::kCompGcn;
  KgeConfig kge;
  JointAlignConfig align;
  InferenceConfig infer;
  // Table 5 ablation: when false, no entity-class model is trained and
  // class similarity falls back to weighted mean embeddings.
  bool use_class_embeddings = true;
  // Epochs of focal-loss fine-tuning per active-learning round.
  int fine_tune_epochs = 10;
  uint64_t seed = 17;

  // Rejects configurations the pipeline cannot run (non-positive
  // epochs/dimensions, thresholds outside [0, 1], ...) with
  // InvalidArgumentError. DaakgAligner::Create() calls this before
  // constructing anything.
  Status Validate() const;
};

// Per-element-kind evaluation scores (one Table 3 cell group).
struct EvalResult {
  RankingMetrics ent_rank, rel_rank, cls_rank;
  PrfMetrics ent_prf, rel_prf, cls_prf;
};

// The public entry point of the library: owns the two KGs' embedding
// models, the entity-class models and the joint alignment model, and runs
// the training recipe of Sect. 4 (embedding learning -> supervised
// alignment -> semi-supervised re-training). Active-learning drivers call
// FineTune() with each newly labeled batch.
class DaakgAligner {
 public:
  // Validated construction: checks `task` for null and for a KG without
  // entities, and `config` via DaakgConfig::Validate(), before building any
  // model state. Prefer this over the raw constructor in application code.
  static StatusOr<std::unique_ptr<DaakgAligner>> Create(
      const AlignmentTask* task, const DaakgConfig& config);

  // `task` must outlive the aligner. Assumes `config` is valid; call
  // Create() to get validation.
  DaakgAligner(const AlignmentTask* task, const DaakgConfig& config);

  const AlignmentTask& task() const { return *task_; }
  const DaakgConfig& config() const { return config_; }

  // Full initial training from a seed alignment. Accumulates `seed` into
  // the internal labeled set.
  void Train(const SeedAlignment& seed);

  // Active-learning update: folds `new_matches` into the labeled set,
  // runs focal-loss fine-tuning on them plus refresher epochs on the full
  // labeled set, then optionally one semi-supervision round.
  void FineTune(const SeedAlignment& new_matches);

  // Brings the similarity caches up to date (delegates to the joint model;
  // returns at once when no parameter moved since the last refresh).
  void RefreshCaches() { joint_->RefreshCaches(); }

  // Evaluation against the task's gold matches, excluding the labeled set
  // from each kind's test pairs (falling back to all gold pairs when the
  // labeled set covers everything, as happens for tiny schemata).
  EvalResult Evaluate();

  // Final output: greedy one-to-one matches above the match threshold.
  struct Alignment {
    std::vector<std::pair<EntityId, EntityId>> entities;
    std::vector<std::pair<RelationId, RelationId>> relations;
    std::vector<std::pair<ClassId, ClassId>> classes;
  };
  Alignment ExtractAlignment();

  JointAlignmentModel* joint() { return joint_.get(); }
  const JointAlignmentModel* joint() const { return joint_.get(); }
  KgeModel* model1() { return model1_.get(); }
  KgeModel* model2() { return model2_.get(); }
  // Entity-class models; null when config().use_class_embeddings is false.
  const EntityClassModel* ec1() const { return ec1_.get(); }
  const EntityClassModel* ec2() const { return ec2_.get(); }
  const SeedAlignment& labeled() const { return labeled_; }

 private:
  void WarmStartKge();
  void KgeEpoch();
  // One joint round: a KGE epoch per KG interleaved with alignment epochs.
  void JointRound(const SeedAlignment& train_set, bool focal);
  // Mines semi-supervision and adds every mined pair to the pseudo-seeds.
  void RefreshSemiSupervision();
  // The labeled set followed by the pseudo-seeds it does not hold.
  SeedAlignment TrainingSet() const;

  const AlignmentTask* task_;
  DaakgConfig config_;
  Rng rng_;
  std::unique_ptr<KgeModel> model1_;
  std::unique_ptr<KgeModel> model2_;
  std::unique_ptr<EntityClassModel> ec1_;
  std::unique_ptr<EntityClassModel> ec2_;
  std::unique_ptr<JointAlignmentModel> joint_;
  std::unique_ptr<KgeTrainer> trainer1_;
  std::unique_ptr<KgeTrainer> trainer2_;
  // KG1 and KG2 draw from these on two threads at once (TrainSideBySide):
  // each starts its own cache line so that neither write stalls the other.
  alignas(64) Rng kge_rng1_{0};
  alignas(64) Rng kge_rng2_{0};
  SeedAlignment labeled_;
  // Bootstrapped supervision (Sect. 4.2): the mined pairs (score > tau),
  // both as soft pairs for the Eq. 10 loss and as pseudo-seeds.
  std::vector<std::pair<ElementPair, double>> semi_pairs_;
  SeedAlignment pseudo_seeds_;
  bool kge_trained_ = false;
};

}  // namespace daakg

#endif  // DAAKG_CORE_DAAKG_H_

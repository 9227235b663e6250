#include "core/daakg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace daakg {
namespace {

// Semi-supervision cadence: mining re-runs every `kSemiEvery` training
// rounds once a third of the rounds have elapsed.
constexpr int kSemiEvery = 12;

// The greedy one-to-one matches at kMatchThreshold: entities through the
// joint model's index over the unit rows, relations and classes from
// their schema-sized matrices.
DaakgAligner::Alignment GreedyAlignment(const JointAlignmentModel& joint) {
  const CandidateIndex& index = joint.entity_index();
  const Matrix& rel_sim = joint.relation_sim();
  const Matrix& cls_sim = joint.class_sim();
  return {GreedyOneToOneMatches(
              index.QueryAbove(joint.unit_mapped1(), kMatchThreshold),
              index.base().rows()),
          GreedyOneToOneMatches(CellsAbove(rel_sim, kMatchThreshold),
                                rel_sim.cols()),
          GreedyOneToOneMatches(CellsAbove(cls_sim, kMatchThreshold),
                                cls_sim.cols())};
}

}  // namespace

Status DaakgConfig::Validate() const {
  switch (kge_model) {
    case KgeModelKind::kTransE:
    case KgeModelKind::kRotatE:
    case KgeModelKind::kCompGcn:
      break;
    default:
      // A blind cast can smuggle in any integer; catch it here rather than
      // letting MakeKgeModel return nullptr mid-construction.
      return InvalidArgumentError("kge_model holds an out-of-range value");
  }
  if (kge.dim == 0) return InvalidArgumentError("kge.dim must be positive");
  if (kge.class_dim == 0) {
    return InvalidArgumentError("kge.class_dim must be positive");
  }
  if (kge.epochs <= 0) {
    return InvalidArgumentError("kge.epochs must be positive");
  }
  if (align.align_epochs <= 0) {
    return InvalidArgumentError("align.align_epochs must be positive");
  }
  if (align.joint_epochs_per_round <= 0) {
    return InvalidArgumentError(
        "align.joint_epochs_per_round must be positive");
  }
  if (align.tau < 0.0 || align.tau > 1.0) {
    return InvalidArgumentError("align.tau must be in [0, 1]");
  }
  // Calibration sums exp((s - 1) / z) over cosines s >= -1, so a
  // temperature must keep exp(-2 / z) a normal double (z >= ~0.0029).
  for (const auto& [name, z] : {std::pair{"align.z_ent", align.z_ent},
                                std::pair{"align.z_rel", align.z_rel},
                                std::pair{"align.z_cls", align.z_cls}}) {
    if (!(std::isfinite(z) && z > 0.0 &&
          std::exp(-2.0 / z) >= std::numeric_limits<double>::min())) {
      return InvalidArgumentError(std::string(name) +
                                  " must be finite and at least ~0.0029");
    }
  }
  if (fine_tune_epochs <= 0) {
    return InvalidArgumentError("fine_tune_epochs must be positive");
  }
  // PrecomputeEdgeCosts indexes the sorted finite costs at this fraction.
  const double pct = infer.calibration_percentile;
  if (!(std::isfinite(pct) && pct >= 0.0 && pct <= 1.0)) {
    return InvalidArgumentError(
        "infer.calibration_percentile must be finite and in [0, 1]");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<DaakgAligner>> DaakgAligner::Create(
    const AlignmentTask* task, const DaakgConfig& config) {
  if (task == nullptr) return InvalidArgumentError("task must not be null");
  DAAKG_RETURN_IF_ERROR(config.Validate());
  return std::make_unique<DaakgAligner>(task, config);
}

DaakgAligner::DaakgAligner(const AlignmentTask* task,
                           const DaakgConfig& config)
    : task_(task), config_(config), rng_(config.seed) {
  KgeConfig kge_cfg = config_.kge;
  kge_cfg.seed = rng_.NextUint64();
  model1_ = MakeKgeModel(config_.kge_model, &task->kg1, kge_cfg);
  kge_cfg.seed = rng_.NextUint64();
  model2_ = MakeKgeModel(config_.kge_model, &task->kg2, kge_cfg);
  if (config_.use_class_embeddings) {
    ec1_ = std::make_unique<EntityClassModel>(model1_.get(), config_.kge);
    ec2_ = std::make_unique<EntityClassModel>(model2_.get(), config_.kge);
  }
  joint_ = std::make_unique<JointAlignmentModel>(
      model1_.get(), model2_.get(), ec1_.get(), ec2_.get(), config_.align);

  Rng init_rng = rng_.Fork();
  model1_->Init(&init_rng);
  model2_->Init(&init_rng);
  if (ec1_ != nullptr) ec1_->Init(&init_rng);
  if (ec2_ != nullptr) ec2_->Init(&init_rng);
  joint_->Init(&init_rng);
}

void DaakgAligner::WarmStartKge() {
  obs::TraceSpan span("core.kge_warm_start", "core");
  kge_rng1_ = rng_.Fork();
  kge_rng2_ = rng_.Fork();
  trainer1_ = std::make_unique<KgeTrainer>(model1_.get(), ec1_.get());
  trainer2_ = std::make_unique<KgeTrainer>(model2_.get(), ec2_.get());
  TrainSideBySide(trainer1_.get(), &kge_rng1_, trainer2_.get(), &kge_rng2_,
                  config_.kge.epochs);
  kge_trained_ = true;
}

void DaakgAligner::KgeEpoch() {
  TrainSideBySide(trainer1_.get(), &kge_rng1_, trainer2_.get(), &kge_rng2_,
                  /*epochs=*/1);
}

void DaakgAligner::JointRound(const SeedAlignment& train_set, bool focal) {
  obs::TraceSpan span("core.joint_round", "core");
  KgeEpoch();
  Rng rng = rng_.Fork();
  for (int k = 0; k < config_.align.joint_epochs_per_round; ++k) {
    joint_->TrainEpoch(train_set, &rng, focal);
  }
  if (!semi_pairs_.empty()) {
    joint_->TrainSemiEpoch(semi_pairs_, &rng);
  }
}

void DaakgAligner::RefreshSemiSupervision() {
  static obs::Counter* semi_pairs_count =
      obs::GlobalMetrics().GetCounter("daakg.align.semi_supervised_pairs");
  joint_->RefreshCaches();
  semi_pairs_ = joint_->MineSemiSupervision();
  semi_pairs_count->Increment(semi_pairs_.size());
  // Every mined pair (score > tau) also acts as a pseudo-seed for the
  // contrastive loss (the bootstrapping of BootEA that Sect. 4.2 adopts).
  // Conflicts were already resolved one-to-one during mining.
  pseudo_seeds_ = SeedAlignment();
  for (const auto& mined : semi_pairs_) pseudo_seeds_.Add(mined.first);
}

SeedAlignment DaakgAligner::TrainingSet() const {
  SeedAlignment train_set = labeled_;
  train_set.Merge(pseudo_seeds_);
  return train_set;
}

void DaakgAligner::Train(const SeedAlignment& seed) {
  obs::TraceSpan span("core.train", "core");
  labeled_.Merge(seed);

  if (!kge_trained_) WarmStartKge();

  const int rounds = config_.align.align_epochs;
  for (int round = 0; round < rounds; ++round) {
    if (config_.align.semi_supervised && round >= rounds / 3 &&
        (round - rounds / 3) % kSemiEvery == 0) {
      RefreshSemiSupervision();
    }
    JointRound(TrainingSet(), /*focal=*/false);
  }
  joint_->RefreshCaches();
}

void DaakgAligner::FineTune(const SeedAlignment& new_matches) {
  obs::TraceSpan span("core.fine_tune", "core");
  span.AddArg("new_entities", static_cast<double>(new_matches.entities.size()));
  labeled_.Merge(new_matches);

  // Focal-loss pass concentrated on the new labels (Sect. 4.2), then
  // interleaved refresher rounds on everything labeled so far.
  Rng rng = rng_.Fork();
  for (int e = 0; e < config_.fine_tune_epochs; ++e) {
    joint_->TrainEpoch(new_matches, &rng, /*focal=*/true);
  }
  if (config_.align.semi_supervised) RefreshSemiSupervision();
  for (int e = 0; e < std::max(1, config_.fine_tune_epochs / 2); ++e) {
    JointRound(TrainingSet(), /*focal=*/false);
  }
  joint_->RefreshCaches();
}

EvalResult DaakgAligner::Evaluate() {
  obs::TraceSpan span("core.evaluate", "core");
  joint_->RefreshCaches();
  EvalResult out;
  auto ent_test = TestPairs(task_->gold_entities, labeled_.entities);
  auto rel_test = TestPairs(task_->gold_relations, labeled_.relations);
  auto cls_test = TestPairs(task_->gold_classes, labeled_.classes);

  const Matrix& unit1 = joint_->unit_mapped1();
  const Matrix& rel_sim = joint_->relation_sim();
  const Matrix& cls_sim = joint_->class_sim();
  out.ent_rank =
      FoldRanks(GreaterCounts(joint_->entity_index(), unit1, ent_test));
  out.rel_rank = FoldRanks(GreaterCounts(rel_sim, rel_test));
  out.cls_rank = FoldRanks(GreaterCounts(cls_sim, cls_test));
  const Alignment predicted = GreedyAlignment(*joint_);
  out.ent_prf = ScoreMatches(predicted.entities, ent_test);
  out.rel_prf = ScoreMatches(predicted.relations, rel_test);
  out.cls_prf = ScoreMatches(predicted.classes, cls_test);
  return out;
}

DaakgAligner::Alignment DaakgAligner::ExtractAlignment() {
  obs::TraceSpan span("core.extract_alignment", "core");
  joint_->RefreshCaches();
  return GreedyAlignment(*joint_);
}

}  // namespace daakg

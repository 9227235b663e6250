#ifndef DAAKG_BASELINES_EMBEDDING_BASELINE_H_
#define DAAKG_BASELINES_EMBEDDING_BASELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline_result.h"
#include "core/daakg.h"
#include "kg/alignment_task.h"

namespace daakg {

// Configuration of one deep entity-alignment competitor (Sect. 7.2). All
// competitors share one skeleton — "treat classes as entities, embed, learn
// a mapping from seed matches" — and differ in the knobs below, most of
// them `daakg` fields. Each is a faithful *-lite* reimplementation of the
// cited method's key idea (see DESIGN.md for the per-method mapping):
//   MTransE    : TransE + linear mapping.
//   BootEA     : MTransE + bootstrapped (semi-supervised) match mining.
//   GCN-Align  : GNN encoder + mapping.
//   KECG       : GNN encoder + semi-supervision (joint KE / cross-graph).
//   MuGNN      : GNN encoder with wider neighborhood aggregation.
//   RSN        : TransE over a path-augmented KG (composite 2-hop
//                relations emulate the skipping RNN's long-path modeling).
//   AttrE      : literal name view blended with a weak structure view.
//   MultiKE    : multi-view — name view + structure view, equal blend.
struct EmbeddingBaselineConfig {
  std::string name;
  bool path_augmentation = false;    // RSN: composite 2-hop relations
  double name_view_weight = 0.0;     // AttrE / MultiKE literal blending
  // Model, training schedule and seed. Run() trains with DaakgAligner and
  // turns off its class embeddings and mean embeddings.
  DaakgConfig daakg;
};

// Runs one competitor end to end on `task` with the given seed alignment
// and evaluates entity / relation / class alignment the same way DAAKG is
// evaluated. Classes are folded into the entity set ("treated as entities",
// as the paper describes for these methods), which is exactly why their
// schema-alignment scores collapse. Training is DaakgAligner::Train on the
// transformed task, so every competitor runs DAAKG's training loop.
class EmbeddingBaseline {
 public:
  EmbeddingBaseline(const AlignmentTask* task,
                    const EmbeddingBaselineConfig& config);

  BaselineResult Run(const SeedAlignment& seed);

 private:
  // Builds the classes-as-entities transformed pair of KGs.
  void BuildTransformedTask();

  const AlignmentTask* task_;
  EmbeddingBaselineConfig config_;
  AlignmentTask transformed_;
  // class-entity id of class c in the transformed KGs.
  std::vector<EntityId> cls_ent1_, cls_ent2_;
};

// The Table 3 competitor roster (all eight embedding baselines) with their
// canonical configurations.
std::vector<EmbeddingBaselineConfig> StandardBaselineRoster(
    const KgeConfig& kge, const JointAlignConfig& align);

}  // namespace daakg

#endif  // DAAKG_BASELINES_EMBEDDING_BASELINE_H_

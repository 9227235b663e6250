// Quickstart: generate a synthetic KG pair, train DAAKG from a 20% seed
// alignment, and print entity / relation / class alignment quality plus a
// few extracted matches.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <cstdio>

#include "core/daakg.h"
#include "kg/stats.h"
#include "kg/synthetic.h"

using namespace daakg;  // NOLINT: example code favors brevity

int main() {
  // 1. Data: a small DBpedia-Wikidata-style synthetic pair (see
  //    kg/synthetic.h for the knobs; LoadAlignmentTask() reads real TSVs).
  SyntheticKgSpec spec;
  spec.name = "quickstart";
  spec.num_entities1 = 400;
  spec.num_entities2 = 280;
  spec.num_relations1 = 20;
  spec.num_relations2 = 14;
  spec.num_relation_matches = 10;
  spec.num_classes1 = 10;
  spec.num_classes2 = 8;
  spec.num_class_matches = 6;
  spec.seed = 7;
  auto task_or = GenerateSyntheticTask(spec);
  if (!task_or.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 task_or.status().ToString().c_str());
    return 1;
  }
  AlignmentTask task = std::move(task_or).value();
  TaskStats stats = ComputeTaskStats(task);
  std::printf("dataset: %zu vs %zu entities, %zu vs %zu relations, "
              "%zu vs %zu classes, %zu gold entity matches\n",
              stats.entities1, stats.entities2, stats.relations1,
              stats.relations2, stats.classes1, stats.classes2,
              stats.entity_matches);

  // 2. Model: DAAKG with the TransE base embedding (use kCompGcn for the
  //    GNN encoder; it is slower but stronger). Create() validates the
  //    config and reports problems as a Status instead of crashing.
  DaakgConfig config;
  config.kge_model = KgeModelKind::kTransE;
  config.kge.epochs = 30;
  config.align.align_epochs = 30;
  config.align.semi_supervised = true;
  auto aligner_or = DaakgAligner::Create(&task, config);
  if (!aligner_or.ok()) {
    std::fprintf(stderr, "bad config: %s\n",
                 aligner_or.status().ToString().c_str());
    return 1;
  }
  DaakgAligner& aligner = **aligner_or;

  // 3. Seed supervision: 20% of the gold matches, as in the paper's
  //    deep-alignment comparison.
  Rng rng(1);
  SeedAlignment seed = task.SampleSeed(0.2, &rng);
  std::printf("training with %zu entity / %zu relation / %zu class seeds\n",
              seed.entities.size(), seed.relations.size(),
              seed.classes.size());
  aligner.Train(seed);

  // 4. Evaluate on the unseen gold matches.
  EvalResult eval = aligner.Evaluate();
  std::printf("entity   H@1 %.3f  MRR %.3f  F1 %.3f\n",
              eval.ent_rank.hits_at_1, eval.ent_rank.mrr, eval.ent_prf.f1);
  std::printf("relation H@1 %.3f  MRR %.3f  F1 %.3f\n",
              eval.rel_rank.hits_at_1, eval.rel_rank.mrr, eval.rel_prf.f1);
  std::printf("class    H@1 %.3f  MRR %.3f  F1 %.3f\n",
              eval.cls_rank.hits_at_1, eval.cls_rank.mrr, eval.cls_prf.f1);

  // 5. Extract the final alignment and show a few entity matches.
  DaakgAligner::Alignment alignment = aligner.ExtractAlignment();
  std::printf("extracted %zu entity, %zu relation, %zu class matches; "
              "examples:\n", alignment.entities.size(),
              alignment.relations.size(), alignment.classes.size());
  for (size_t i = 0; i < alignment.entities.size() && i < 5; ++i) {
    const auto& [e1, e2] = alignment.entities[i];
    std::printf("  %-28s <-> %s\n", task.kg1.entity_name(e1).c_str(),
                task.kg2.entity_name(e2).c_str());
  }
  return 0;
}

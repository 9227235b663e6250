#include <gtest/gtest.h>

#include <set>

#include "baselines/bertmap_lite.h"
#include "baselines/embedding_baseline.h"
#include "baselines/paris.h"
#include "kg/synthetic.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

using testing_util::SmallSyntheticTask;

EmbeddingBaselineConfig FastBaselineConfig(const std::string& name) {
  EmbeddingBaselineConfig cfg;
  cfg.name = name;
  cfg.kge.dim = 16;
  cfg.kge.epochs = 8;
  cfg.align.align_epochs = 10;
  return cfg;
}

TEST(BaselineRosterTest, HasAllEightCompetitors) {
  KgeConfig kge;
  JointAlignConfig align;
  auto roster = StandardBaselineRoster(kge, align);
  ASSERT_EQ(roster.size(), 8u);
  std::set<std::string> names;
  for (const auto& cfg : roster) names.insert(cfg.name);
  for (const char* expected : {"MTransE", "BootEA", "GCN-Align", "AttrE",
                               "RSN", "MuGNN", "MultiKE", "KECG"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(BaselineRosterTest, ConfigurationsAreDistinct) {
  KgeConfig kge;
  JointAlignConfig align;
  auto roster = StandardBaselineRoster(kge, align);
  // BootEA differs from MTransE by bootstrapping; AttrE/MultiKE use the
  // name view; RSN augments paths; GCN variants use the GNN model.
  auto find = [&roster](const std::string& n) {
    for (const auto& c : roster) {
      if (c.name == n) return c;
    }
    ADD_FAILURE() << "missing " << n;
    return roster[0];
  };
  EXPECT_GT(find("BootEA").semi_rounds, find("MTransE").semi_rounds);
  EXPECT_GT(find("AttrE").name_view_weight, 0.0);
  EXPECT_GT(find("MultiKE").name_view_weight, 0.0);
  EXPECT_TRUE(find("RSN").path_augmentation);
  EXPECT_EQ(find("GCN-Align").kge_model, KgeModelKind::kCompGcn);
  EXPECT_GT(find("MuGNN").max_neighbors, find("GCN-Align").max_neighbors);
}

TEST(EmbeddingBaselineTest, MTransELiteRunsEndToEnd) {
  AlignmentTask task = SmallSyntheticTask();
  EmbeddingBaseline baseline(&task, FastBaselineConfig("MTransE"));
  Rng rng(1);
  SeedAlignment seed = task.SampleSeed(0.2, &rng);
  BaselineResult result = baseline.Run(seed);
  EXPECT_EQ(result.name, "MTransE");
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_GT(result.eval.ent_rank.num_queries, 0u);
  EXPECT_GE(result.eval.ent_rank.mrr, 0.0);
  EXPECT_LE(result.eval.ent_rank.hits_at_1, 1.0);
}

TEST(EmbeddingBaselineTest, PathAugmentationRuns) {
  AlignmentTask task = SmallSyntheticTask();
  auto cfg = FastBaselineConfig("RSN");
  cfg.path_augmentation = true;
  EmbeddingBaseline baseline(&task, cfg);
  Rng rng(2);
  BaselineResult result = baseline.Run(task.SampleSeed(0.2, &rng));
  EXPECT_GE(result.eval.ent_rank.mrr, 0.0);
}

TEST(EmbeddingBaselineTest, NameViewHelpsOnSharedNames) {
  // With kSharedNames, blending the literal name view must improve entity
  // H@1 over the pure structure view (the MultiKE phenomenon).
  SyntheticKgSpec spec;
  spec.num_entities1 = 100;
  spec.num_entities2 = 70;
  spec.num_relations1 = 8;
  spec.num_relations2 = 6;
  spec.num_relation_matches = 4;
  spec.num_classes1 = 5;
  spec.num_classes2 = 4;
  spec.num_class_matches = 3;
  spec.name_policy = NamePolicy::kSharedNames;
  spec.seed = 11;
  AlignmentTask task = std::move(GenerateSyntheticTask(spec)).value();
  Rng rng(3);
  SeedAlignment seed = task.SampleSeed(0.2, &rng);

  auto plain_cfg = FastBaselineConfig("MTransE");
  EmbeddingBaseline plain(&task, plain_cfg);
  auto name_cfg = FastBaselineConfig("MultiKE");
  name_cfg.name_view_weight = 0.5;
  EmbeddingBaseline with_names(&task, name_cfg);

  BaselineResult r_plain = plain.Run(seed);
  BaselineResult r_names = with_names.Run(seed);
  EXPECT_GE(r_names.eval.ent_rank.hits_at_1,
            r_plain.eval.ent_rank.hits_at_1);
  EXPECT_GT(r_names.eval.ent_rank.hits_at_1, 0.5);  // names nearly identical
}

TEST(EmbeddingBaselineTest, NameViewUselessOnOpaqueIds) {
  SyntheticKgSpec spec;
  spec.num_entities1 = 100;
  spec.num_entities2 = 70;
  spec.num_relations1 = 8;
  spec.num_relations2 = 6;
  spec.num_relation_matches = 4;
  spec.num_classes1 = 5;
  spec.num_classes2 = 4;
  spec.num_class_matches = 3;
  spec.name_policy = NamePolicy::kOpaqueIds;
  spec.seed = 12;
  AlignmentTask task = std::move(GenerateSyntheticTask(spec)).value();
  Rng rng(4);
  SeedAlignment seed = task.SampleSeed(0.2, &rng);
  auto cfg = FastBaselineConfig("AttrE");
  cfg.name_view_weight = 0.7;
  EmbeddingBaseline baseline(&task, cfg);
  BaselineResult result = baseline.Run(seed);
  // Opaque Wikidata-style ids: the literal view cannot reach high accuracy.
  EXPECT_LT(result.eval.ent_rank.hits_at_1, 0.5);
}

// ---------------------------------------------------------------------------
// PARIS
// ---------------------------------------------------------------------------

TEST(ParisTest, RunsAndScoresSanely) {
  AlignmentTask task = SmallSyntheticTask();
  Paris paris(&task);
  Rng rng(5);
  BaselineResult result = paris.Run(task.SampleSeed(0.2, &rng));
  EXPECT_EQ(result.name, "PARIS");
  EXPECT_GE(result.eval.ent_rank.mrr, 0.0);
  EXPECT_LE(result.eval.ent_rank.hits_at_1, 1.0);
  EXPECT_GE(result.eval.cls_rank.mrr, 0.0);
}

TEST(ParisTest, StrongWithSharedNames) {
  SyntheticKgSpec spec;
  spec.num_entities1 = 120;
  spec.num_entities2 = 90;
  spec.num_relations1 = 10;
  spec.num_relations2 = 8;
  spec.num_relation_matches = 6;
  spec.num_classes1 = 6;
  spec.num_classes2 = 5;
  spec.num_class_matches = 4;
  spec.name_policy = NamePolicy::kSharedNames;
  spec.seed = 13;
  AlignmentTask task = std::move(GenerateSyntheticTask(spec)).value();
  Paris paris(&task);
  Rng rng(6);
  BaselineResult result = paris.Run(task.SampleSeed(0.1, &rng));
  // Name anchors + propagation: most matches found.
  EXPECT_GT(result.eval.ent_rank.hits_at_1, 0.5);
  EXPECT_GT(result.eval.rel_rank.hits_at_1, 0.3);
}

TEST(ParisTest, DeterministicAcrossRuns) {
  AlignmentTask task = SmallSyntheticTask();
  Paris paris(&task);
  Rng rng1(7), rng2(7);
  BaselineResult a = paris.Run(task.SampleSeed(0.2, &rng1));
  BaselineResult b = paris.Run(task.SampleSeed(0.2, &rng2));
  EXPECT_DOUBLE_EQ(a.eval.ent_rank.mrr, b.eval.ent_rank.mrr);
}

// ---------------------------------------------------------------------------
// BERTMap-lite
// ---------------------------------------------------------------------------

TEST(BertMapLiteTest, PerfectOnIdenticalClassNames) {
  SyntheticKgSpec spec;
  spec.num_entities1 = 60;
  spec.num_entities2 = 40;
  spec.num_relations1 = 6;
  spec.num_relations2 = 5;
  spec.num_relation_matches = 3;
  spec.num_classes1 = 6;
  spec.num_classes2 = 5;
  spec.num_class_matches = 4;
  spec.name_policy = NamePolicy::kSharedNames;
  spec.seed = 14;
  AlignmentTask task = std::move(GenerateSyntheticTask(spec)).value();
  BertMapLite bertmap(&task);
  Rng rng(8);
  BaselineResult result = bertmap.Run(task.SampleSeed(0.1, &rng));
  EXPECT_GT(result.eval.cls_rank.hits_at_1, 0.7);
}

TEST(BertMapLiteTest, CollapsesOnObfuscatedNames) {
  SyntheticKgSpec spec;
  spec.num_entities1 = 60;
  spec.num_entities2 = 40;
  spec.num_relations1 = 6;
  spec.num_relations2 = 5;
  spec.num_relation_matches = 3;
  spec.num_classes1 = 6;
  spec.num_classes2 = 5;
  spec.num_class_matches = 4;
  spec.name_policy = NamePolicy::kObfuscated;
  spec.seed = 15;
  AlignmentTask task = std::move(GenerateSyntheticTask(spec)).value();
  BertMapLite bertmap(&task);
  Rng rng(9);
  BaselineResult result = bertmap.Run(task.SampleSeed(0.1, &rng));
  // Cross-lingual class names defeat the lexical model (Table 3's BERTMap
  // drop on EN-DE / EN-FR).
  EXPECT_LT(result.eval.cls_rank.hits_at_1, 0.6);
}

TEST(BertMapLiteTest, OnlyClassMetricsPopulated) {
  AlignmentTask task = SmallSyntheticTask();
  BertMapLite bertmap(&task);
  Rng rng(10);
  BaselineResult result = bertmap.Run(task.SampleSeed(0.1, &rng));
  EXPECT_EQ(result.eval.ent_rank.num_queries, 0u);
  EXPECT_GT(result.eval.cls_rank.num_queries, 0u);
}

}  // namespace
}  // namespace daakg

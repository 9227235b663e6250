#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "baselines/bertmap_lite.h"
#include "baselines/embedding_baseline.h"
#include "baselines/paris.h"
#include "kg/synthetic.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

using testing_util::SmallSyntheticTask;

EmbeddingBaselineConfig FastBaselineConfig(const std::string& name) {
  EmbeddingBaselineConfig cfg;
  cfg.name = name;
  cfg.daakg.kge_model = KgeModelKind::kTransE;
  cfg.daakg.kge.dim = 16;
  cfg.daakg.kge.epochs = 8;
  cfg.daakg.align.align_epochs = 10;
  cfg.daakg.align.semi_supervised = false;
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
  EXPECT_TRUE(find("BootEA").daakg.align.semi_supervised);
  EXPECT_FALSE(find("MTransE").daakg.align.semi_supervised);
  EXPECT_TRUE(find("KECG").daakg.align.semi_supervised);
  EXPECT_GT(find("AttrE").name_view_weight, 0.0);
  EXPECT_GT(find("MultiKE").name_view_weight, 0.0);
  EXPECT_TRUE(find("RSN").path_augmentation);
  EXPECT_EQ(find("MTransE").daakg.kge_model, KgeModelKind::kTransE);
  EXPECT_EQ(find("GCN-Align").daakg.kge_model, KgeModelKind::kCompGcn);
  EXPECT_GT(find("MuGNN").daakg.kge.max_neighbors,
            find("GCN-Align").daakg.kge.max_neighbors);
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

void ExpectSameRanking(const RankingMetrics& a, const RankingMetrics& b) {
  EXPECT_EQ(a.num_queries, b.num_queries);
  EXPECT_EQ(a.hits_at_1, b.hits_at_1);
  EXPECT_EQ(a.hits_at_10, b.hits_at_10);
  EXPECT_EQ(a.mrr, b.mrr);
}

void ExpectSamePrf(const PrfMetrics& a, const PrfMetrics& b) {
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.f1, b.f1);
  EXPECT_EQ(a.num_predicted, b.num_predicted);
  EXPECT_EQ(a.num_correct, b.num_correct);
}

// Two runs of one config, each on its own baseline object, give the same
// scores bit for bit (semi-supervision on, so pseudo-seeds are mined).
TEST(EmbeddingBaselineTest, RunIsDeterministic) {
  AlignmentTask task = SmallSyntheticTask();
  auto cfg = FastBaselineConfig("BootEA");
  cfg.daakg.align.semi_supervised = true;
  cfg.daakg.align.tau = 0.6;
  Rng rng(1);
  const SeedAlignment seed = task.SampleSeed(0.2, &rng);
  obs::Counter* mined =
      obs::GlobalMetrics().GetCounter("daakg.align.semi_supervised_pairs");
  const uint64_t mined_before = mined->Value();
  const EvalResult a = EmbeddingBaseline(&task, cfg).Run(seed).eval;
  const EvalResult b = EmbeddingBaseline(&task, cfg).Run(seed).eval;
  EXPECT_GT(mined->Value(), mined_before);
  ASSERT_GT(a.ent_rank.num_queries, 0u);
  ExpectSameRanking(a.ent_rank, b.ent_rank);
  ExpectSameRanking(a.rel_rank, b.rel_rank);
  ExpectSameRanking(a.cls_rank, b.cls_rank);
  ExpectSamePrf(a.ent_prf, b.ent_prf);
  ExpectSamePrf(a.rel_prf, b.rel_prf);
  ExpectSamePrf(a.cls_prf, b.cls_prf);
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

// ---------------------------------------------------------------------------
// Golden evaluation output
// ---------------------------------------------------------------------------

// Every EvalResult field, the doubles in hexadecimal floating point, so a
// change of one bit of one metric shows.
std::string HexEval(const EvalResult& e) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const RankingMetrics* r : {&e.ent_rank, &e.rel_rank, &e.cls_rank}) {
    os << r->hits_at_1 << ' ' << r->hits_at_10 << ' ' << r->mrr << ' '
       << r->num_queries << '\n';
  }
  for (const PrfMetrics* p : {&e.ent_prf, &e.rel_prf, &e.cls_prf}) {
    os << p->precision << ' ' << p->recall << ' ' << p->f1 << ' '
       << p->num_predicted << ' ' << p->num_correct << '\n';
  }
  return os.str();
}

struct BaselinePin {
  const char* name;  // "PARIS", or an embedding baseline's config name
  double name_view_weight;
  bool semi_supervised;
  const char* eval;  // HexEval of the result
};

void PrintTo(const BaselinePin& p, std::ostream* os) { *os << p.name; }

class BaselineGoldenTest : public ::testing::TestWithParam<BaselinePin> {};

// Pins each baseline's evaluation on D-Y (scale 0.2, seed 17): ranking and
// greedy matching over the entity, relation and class cells, with and
// without the name view, and with mined pseudo-seeds (BootEA). A change of
// how the cells are produced or swept must keep every field bit for bit.
// The pins hold at any DAAKG_THREADS and on every SIMD backend.
TEST_P(BaselineGoldenTest, EvalResultIsPinned) {
  const BaselinePin& pin = GetParam();
  auto task = MakeBenchmarkTask(BenchmarkDataset::kDY, 0.2, 17);
  ASSERT_TRUE(task.ok()) << task.status();
  Rng rng(17);
  const SeedAlignment seed = task->SampleSeed(0.2, &rng);
  EvalResult eval;
  if (std::string(pin.name) == "PARIS") {
    eval = Paris(&task.value()).Run(seed).eval;
  } else {
    EmbeddingBaselineConfig cfg = FastBaselineConfig(pin.name);
    cfg.name_view_weight = pin.name_view_weight;
    cfg.daakg.align.semi_supervised = pin.semi_supervised;
    cfg.daakg.align.tau = 0.6;
    eval = EmbeddingBaseline(&task.value(), cfg).Run(seed).eval;
  }
  EXPECT_EQ(HexEval(eval), pin.eval);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineGoldenTest,
    ::testing::Values(
        BaselinePin{"MTransE", 0.0, false,
                    "0x1.b6db6db6db6dbp-5 0x1.f6db6db6db6dbp-3 "
                    "0x1.dbc43e3c554bep-4 224\n"
                    "0x1.5555555555555p-2 0x1p+0 "
                    "0x1.05b05b05b05bp-1 3\n"
                    "0x1.3333333333333p-1 0x1p+0 "
                    "0x1.6666666666666p-1 5\n"
                    "0x1.0fef010fef011p-5 0x1.2492492492492p-5 "
                    "0x1.19e0119e0119dp-5 241 8\n"
                    "0x0p+0 0x0p+0 "
                    "0x0p+0 2 0\n"
                    "0x1.8p-2 0x1.3333333333333p-1 "
                    "0x1.d89d89d89d89dp-2 8 3\n"},
        BaselinePin{"BootEA", 0.0, true,
                    "0x1.b6db6db6db6dbp-6 0x1.adb6db6db6db7p-3 "
                    "0x1.4f2efdd4abd8ap-4 224\n"
                    "0x1.5555555555555p-2 0x1p+0 "
                    "0x1.05b05b05b05bp-1 3\n"
                    "0x1.999999999999ap-2 0x1p+0 "
                    "0x1.3e93e93e93e94p-1 5\n"
                    "0x1.7b8d57f817b8dp-6 0x1.b6db6db6db6dbp-6 "
                    "0x1.970e4f80cb873p-6 259 6\n"
                    "0x0p+0 0x0p+0 "
                    "0x0p+0 3 0\n"
                    "0x1.8p-2 0x1.3333333333333p-1 "
                    "0x1.d89d89d89d89dp-2 8 3\n"},
        BaselinePin{"AttrE", 0.7, false,
                    "0x1p+0 0x1p+0 "
                    "0x1p+0 224\n"
                    "0x1p+0 0x1p+0 "
                    "0x1p+0 3\n"
                    "0x1p+0 0x1p+0 "
                    "0x1p+0 5\n"
                    "0x1.909e175ab909ep-1 0x1.fdb6db6db6db7p-1 "
                    "0x1.c0a0f16a1f2edp-1 285 223\n"
                    "0x1.8p-1 0x1p+0 "
                    "0x1.b6db6db6db6dbp-1 4 3\n"
                    "0x1.aaaaaaaaaaaabp-1 0x1p+0 "
                    "0x1.d1745d1745d17p-1 6 5\n"},
        BaselinePin{"MultiKE", 0.5, false,
                    "0x1.cp-1 0x1.fdb6db6db6db7p-1 "
                    "0x1.d8409294cc359p-1 224\n"
                    "0x1p+0 0x1p+0 "
                    "0x1p+0 3\n"
                    "0x1p+0 0x1p+0 "
                    "0x1p+0 5\n"
                    "0x1.7878787878788p-1 0x1.9p-1 "
                    "0x1.83e0f83e0f83ep-1 238 175\n"
                    "0x1.5555555555555p-1 0x1.5555555555555p-1 "
                    "0x1.5555555555555p-1 3 2\n"
                    "0x1.6db6db6db6db7p-1 0x1p+0 "
                    "0x1.aaaaaaaaaaaaap-1 7 5\n"},
        BaselinePin{"PARIS", 0.0, false,
                    "0x1.f6db6db6db6dbp-1 0x1p+0 "
                    "0x1.fb0c30c30c30bp-1 224\n"
                    "0x1p+0 0x1p+0 "
                    "0x1p+0 3\n"
                    "0x1p+0 0x1p+0 "
                    "0x1p+0 5\n"
                    "0x1.95f15f15f15f1p-1 0x1.fb6db6db6db6ep-1 "
                    "0x1.c30c30c30c30cp-1 280 222\n"
                    "0x1.8p-1 0x1p+0 "
                    "0x1.b6db6db6db6dbp-1 4 3\n"
                    "0x1.6db6db6db6db7p-1 0x1p+0 "
                    "0x1.aaaaaaaaaaaaap-1 7 5\n"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace daakg

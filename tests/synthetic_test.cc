#include <gtest/gtest.h>

#include <set>

#include "common/string_util.h"
#include "kg/stats.h"
#include "kg/synthetic.h"

namespace daakg {
namespace {

SyntheticKgSpec SmallSpec() {
  SyntheticKgSpec spec;
  spec.num_entities1 = 150;
  spec.num_entities2 = 100;
  spec.num_relations1 = 12;
  spec.num_relations2 = 9;
  spec.num_relation_matches = 7;
  spec.num_classes1 = 7;
  spec.num_classes2 = 5;
  spec.num_class_matches = 4;
  spec.seed = 21;
  return spec;
}

TEST(SyntheticTest, CountsMatchSpec) {
  auto task = GenerateSyntheticTask(SmallSpec());
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->kg1.num_entities(), 150u);
  EXPECT_EQ(task->kg2.num_entities(), 100u);
  EXPECT_EQ(task->kg1.num_base_relations(), 12u);
  EXPECT_EQ(task->kg2.num_base_relations(), 9u);
  EXPECT_EQ(task->kg1.num_classes(), 7u);
  EXPECT_EQ(task->kg2.num_classes(), 5u);
  EXPECT_EQ(task->gold_entities.size(), 100u);
  EXPECT_EQ(task->gold_relations.size(), 7u);
  EXPECT_EQ(task->gold_classes.size(), 4u);
}

TEST(SyntheticTest, EveryKg2EntityIsMatched) {
  auto task = GenerateSyntheticTask(SmallSpec());
  ASSERT_TRUE(task.ok());
  std::set<EntityId> matched2;
  for (const auto& [e1, e2] : task->gold_entities) {
    EXPECT_LT(e1, task->kg1.num_entities());
    EXPECT_LT(e2, task->kg2.num_entities());
    matched2.insert(e2);
  }
  EXPECT_EQ(matched2.size(), task->kg2.num_entities());  // all, one-to-one
}

TEST(SyntheticTest, Kg1HasDanglingEntities) {
  auto task = GenerateSyntheticTask(SmallSpec());
  ASSERT_TRUE(task.ok());
  size_t dangling = 0;
  for (EntityId e = 0; e < task->kg1.num_entities(); ++e) {
    if (task->GoldEntityMatchOf1(e) == kInvalidId) ++dangling;
  }
  EXPECT_EQ(dangling, 50u);  // 150 - 100
}

TEST(SyntheticTest, GoldRelationMatchesAreBaseRelations) {
  auto task = GenerateSyntheticTask(SmallSpec());
  ASSERT_TRUE(task.ok());
  for (const auto& [r1, r2] : task->gold_relations) {
    EXPECT_LT(r1, task->kg1.num_base_relations());
    EXPECT_LT(r2, task->kg2.num_base_relations());
  }
}

TEST(SyntheticTest, EveryEntityHasAtLeastOneEdgeAndClass) {
  auto task = GenerateSyntheticTask(SmallSpec());
  ASSERT_TRUE(task.ok());
  for (EntityId e = 0; e < task->kg1.num_entities(); ++e) {
    EXPECT_GT(task->kg1.Degree(e), 0u) << "entity " << e;
    EXPECT_FALSE(task->kg1.ClassesOf(e).empty()) << "entity " << e;
  }
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  auto a = GenerateSyntheticTask(SmallSpec());
  auto b = GenerateSyntheticTask(SmallSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kg1.num_triplets(), b->kg1.num_triplets());
  EXPECT_EQ(a->kg2.num_triplets(), b->kg2.num_triplets());
  EXPECT_EQ(a->gold_entities, b->gold_entities);
  EXPECT_EQ(a->kg1.entity_name(7), b->kg1.entity_name(7));
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  auto spec = SmallSpec();
  auto a = GenerateSyntheticTask(spec);
  spec.seed = 22;
  auto b = GenerateSyntheticTask(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->gold_entities, b->gold_entities);
}

TEST(SyntheticTest, InvalidSpecsRejected) {
  auto spec = SmallSpec();
  spec.num_entities2 = 200;  // larger than side 1
  EXPECT_FALSE(GenerateSyntheticTask(spec).ok());

  spec = SmallSpec();
  spec.num_relation_matches = 100;
  EXPECT_FALSE(GenerateSyntheticTask(spec).ok());

  spec = SmallSpec();
  spec.num_classes2 = 0;
  EXPECT_FALSE(GenerateSyntheticTask(spec).ok());

  spec = SmallSpec();
  spec.avg_degree = 0.0;
  EXPECT_FALSE(GenerateSyntheticTask(spec).ok());
}

TEST(SyntheticTest, SharedNamePolicyKeepsLexicalSimilarity) {
  auto spec = SmallSpec();
  spec.name_policy = NamePolicy::kSharedNames;
  auto task = GenerateSyntheticTask(spec);
  ASSERT_TRUE(task.ok());
  double total = 0.0;
  for (const auto& [e1, e2] : task->gold_entities) {
    total += NgramJaccard(task->kg1.entity_name(e1),
                          task->kg2.entity_name(e2));
  }
  EXPECT_GT(total / task->gold_entities.size(), 0.6);
}

TEST(SyntheticTest, ObfuscatedNamePolicyDestroysLexicalSimilarity) {
  auto spec = SmallSpec();
  spec.name_policy = NamePolicy::kObfuscated;
  auto task = GenerateSyntheticTask(spec);
  ASSERT_TRUE(task.ok());
  double total = 0.0;
  for (const auto& [e1, e2] : task->gold_entities) {
    total += NgramJaccard(task->kg1.entity_name(e1),
                          task->kg2.entity_name(e2));
  }
  EXPECT_LT(total / task->gold_entities.size(), 0.2);
}

TEST(SyntheticTest, ObfuscateNameIsDeterministicAndLosslessOnLength) {
  std::string name = "Person_42_abc";
  EXPECT_EQ(ObfuscateName(name), ObfuscateName(name));
  EXPECT_NE(ObfuscateName(name), name);
  EXPECT_EQ(ObfuscateName(name).size(), name.size() + 3);  // "_xx" suffix
}

// The four benchmark analogues must produce well-formed tasks at small
// scale, with the dataset-specific shapes of Table 2 preserved.
class BenchmarkDatasetTest : public ::testing::TestWithParam<BenchmarkDataset> {};

TEST_P(BenchmarkDatasetTest, GeneratesWellFormedTask) {
  auto task = MakeBenchmarkTask(GetParam(), /*scale=*/0.1, /*seed=*/5);
  ASSERT_TRUE(task.ok());
  TaskStats stats = ComputeTaskStats(*task);
  EXPECT_EQ(stats.entities1, 200u);
  EXPECT_EQ(stats.entities2, 140u);
  EXPECT_EQ(stats.entity_matches, 140u);
  EXPECT_GT(stats.relation_matches, 0u);
  EXPECT_GT(stats.class_matches, 0u);
  EXPECT_GT(stats.triplets1, stats.entities1);  // avg degree > 1
}

TEST_P(BenchmarkDatasetTest, SpecShapeFollowsPaperRatios) {
  SyntheticKgSpec spec = BenchmarkSpec(GetParam(), 1.0, 5);
  EXPECT_GT(spec.num_relations1, spec.num_relations2 - 1);
  EXPECT_GE(spec.num_classes1, spec.num_classes2);
  if (GetParam() == BenchmarkDataset::kDY) {
    // D-Y: schema-poor second side with very few schema matches.
    EXPECT_LE(spec.num_relations2, 8u);
    EXPECT_LE(spec.num_relation_matches + spec.num_class_matches, 12u);
    EXPECT_EQ(spec.name_policy, NamePolicy::kSharedNames);
  }
  if (GetParam() == BenchmarkDataset::kDW) {
    EXPECT_EQ(spec.name_policy, NamePolicy::kOpaqueIds);
  }
  if (GetParam() == BenchmarkDataset::kEnDe ||
      GetParam() == BenchmarkDataset::kEnFr) {
    EXPECT_EQ(spec.name_policy, NamePolicy::kObfuscated);
  }
}

// FNV-1a over the 64-bit little-endian bytes of `v`.
uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Pins the generator's output: caching the Zipf CDFs must not change a
// single draw.
TEST(SyntheticTest, BenchmarkTasksArePinned) {
  struct Pin {
    BenchmarkDataset dataset;
    double scale;
    uint64_t triplets;
    uint64_t type_triplets;
  };
  const Pin pins[] = {
      {BenchmarkDataset::kDW, 0.2, 0x0DBA361DED57058DULL, 0x24D5728185F25690ULL},
      {BenchmarkDataset::kDW, 1.0, 0x896D36A6E286B047ULL, 0x261450A33488C791ULL},
      {BenchmarkDataset::kDY, 0.2, 0x2DC5A8DF3478F8F5ULL, 0x4DB32080C1CDAD0BULL},
      {BenchmarkDataset::kDY, 1.0, 0x2F0CEB620C6412ADULL, 0x7FCAEF0C82175099ULL},
      {BenchmarkDataset::kEnDe, 0.2, 0x9217574BF3B68B0DULL, 0xF2CA2BDC6CB21B8FULL},
      {BenchmarkDataset::kEnDe, 1.0, 0x226E6FDF0931E17DULL, 0xC0F796D5A61E31E6ULL},
      {BenchmarkDataset::kEnFr, 0.2, 0xA63B9ED76D52AB55ULL, 0x84F361B273D1E274ULL},
      {BenchmarkDataset::kEnFr, 1.0, 0x51E6301AA7080A27ULL, 0x164230DB61407891ULL},
  };
  for (const Pin& pin : pins) {
    auto task = MakeBenchmarkTask(pin.dataset, pin.scale, 17);
    ASSERT_TRUE(task.ok()) << task.status();
    uint64_t triplets = 0xCBF29CE484222325ULL;
    uint64_t types = triplets;
    for (const KnowledgeGraph* kg : {&task->kg1, &task->kg2}) {
      for (const Triplet& t : kg->triplets()) {
        triplets = Fnv1a(Fnv1a(Fnv1a(triplets, t.head), t.relation), t.tail);
      }
      for (const TypeTriplet& t : kg->type_triplets()) {
        types = Fnv1a(Fnv1a(types, t.entity), t.cls);
      }
    }
    EXPECT_EQ(triplets, pin.triplets)
        << BenchmarkDatasetName(pin.dataset) << " scale " << pin.scale;
    EXPECT_EQ(types, pin.type_triplets)
        << BenchmarkDatasetName(pin.dataset) << " scale " << pin.scale;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, BenchmarkDatasetTest,
                         ::testing::Values(BenchmarkDataset::kDW,
                                           BenchmarkDataset::kDY,
                                           BenchmarkDataset::kEnDe,
                                           BenchmarkDataset::kEnFr),
                         [](const auto& info) {
                           return std::string(
                               BenchmarkDatasetName(info.param) ==
                                       std::string("D-W")
                                   ? "DW"
                               : BenchmarkDatasetName(info.param) ==
                                       std::string("D-Y")
                                   ? "DY"
                               : BenchmarkDatasetName(info.param) ==
                                       std::string("EN-DE")
                                   ? "ENDE"
                                   : "ENFR");
                         });

}  // namespace
}  // namespace daakg

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "common/file_util.h"
#include "kg/alignment_task.h"
#include "kg/io.h"
#include "kg/knowledge_graph.h"
#include "kg/stats.h"
#include "kg/synthetic.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

using testing_util::MirrorTask;

KnowledgeGraph TinyKg() {
  KnowledgeGraph kg;
  EntityId a = kg.AddEntity("a");
  EntityId b = kg.AddEntity("b");
  EntityId c = kg.AddEntity("c");
  RelationId r = kg.AddRelation("r");
  RelationId s = kg.AddRelation("s");
  ClassId thing = kg.AddClass("Thing");
  kg.AddTriplet(a, r, b);
  kg.AddTriplet(b, s, c);
  kg.AddTypeTriplet(a, thing);
  kg.AddTypeTriplet(b, thing);
  DAAKG_CHECK(kg.Finalize().ok());
  return kg;
}

TEST(KnowledgeGraphTest, AddAndFindByName) {
  KnowledgeGraph kg;
  EntityId a = kg.AddEntity("alpha");
  EXPECT_EQ(kg.AddEntity("alpha"), a);  // dedup by name
  EXPECT_EQ(kg.FindEntity("alpha"), a);
  EXPECT_EQ(kg.FindEntity("missing"), kInvalidId);
  EXPECT_EQ(kg.entity_name(a), "alpha");
}

TEST(KnowledgeGraphTest, FinalizeAddsReverseRelations) {
  KnowledgeGraph kg = TinyKg();
  EXPECT_EQ(kg.num_base_relations(), 2u);
  EXPECT_EQ(kg.num_relations(), 4u);  // r, s, r^-1, s^-1
  RelationId r = kg.FindRelation("r");
  RelationId r_inv = kg.FindRelation("r^-1");
  ASSERT_NE(r_inv, kInvalidId);
  EXPECT_EQ(kg.ReverseOf(r), r_inv);
  EXPECT_EQ(kg.ReverseOf(r_inv), r);
  EXPECT_FALSE(kg.IsReverseRelation(r));
  EXPECT_TRUE(kg.IsReverseRelation(r_inv));
}

TEST(KnowledgeGraphTest, FinalizeAddsReverseTriplets) {
  KnowledgeGraph kg = TinyKg();
  EXPECT_EQ(kg.num_triplets(), 4u);  // 2 forward + 2 reversed
  EntityId a = kg.FindEntity("a");
  EntityId b = kg.FindEntity("b");
  RelationId r = kg.FindRelation("r");
  EXPECT_TRUE(kg.HasTriplet(a, r, b));
  EXPECT_TRUE(kg.HasTriplet(b, kg.ReverseOf(r), a));
  EXPECT_FALSE(kg.HasTriplet(b, r, a));
}

// HasTriplet against a set of every triplet, on a generated task: each
// triplet is found, and so is nothing else among (head, relation, tail)
// probes that vary one field, plus out-of-range heads. TripletIndex, which
// HasTriplet is built on, numbers the distinct triplets, and the
// TripletKeys range of (head, relation) answers every probe alike.
TEST(KnowledgeGraphTest, HasTripletMatchesTripletSet) {
  AlignmentTask task = testing_util::SmallSyntheticTask();
  for (const KnowledgeGraph* kg : {&task.kg1, &task.kg2}) {
    std::set<std::tuple<EntityId, RelationId, EntityId>> all;
    for (const Triplet& t : kg->triplets()) {
      all.emplace(t.head, t.relation, t.tail);
    }
    for (const Triplet& t : kg->triplets()) {
      EXPECT_TRUE(kg->HasTriplet(t.head, t.relation, t.tail));
    }
    const auto n = static_cast<EntityId>(kg->num_entities());
    const auto m = static_cast<RelationId>(kg->num_relations());
    const auto in_keys = [kg](EntityId h, RelationId r, EntityId t) {
      const std::span<const uint64_t> keys = kg->TripletKeys(h, r);
      return std::binary_search(keys.begin(), keys.end(),
                                KnowledgeGraph::TripletKey(r, t));
    };
    size_t absent = 0;
    for (const Triplet& t : kg->triplets()) {
      for (EntityId tail = 0; tail < n; ++tail) {
        const bool want = all.count({t.head, t.relation, tail}) > 0;
        EXPECT_EQ(kg->HasTriplet(t.head, t.relation, tail), want);
        EXPECT_EQ(in_keys(t.head, t.relation, tail), want);
        absent += want ? 0 : 1;
      }
      for (RelationId r = 0; r < m; ++r) {
        const bool want = all.count({t.head, r, t.tail}) > 0;
        EXPECT_EQ(kg->HasTriplet(t.head, r, t.tail), want);
        EXPECT_EQ(in_keys(t.head, r, t.tail), want);
      }
    }
    EXPECT_GT(absent, 0u);
    EXPECT_FALSE(kg->HasTriplet(n, 0, 0));
    EXPECT_FALSE(kg->HasTriplet(kInvalidId, 0, 0));
    EXPECT_TRUE(kg->TripletKeys(n, 0).empty());
    EXPECT_TRUE(kg->TripletKeys(kInvalidId, 0).empty());

    // TripletIndex gives distinct triplets distinct indexes below
    // num_triplets(), and an absent one kNoTriplet.
    std::map<size_t, std::tuple<EntityId, RelationId, EntityId>> by_index;
    for (const Triplet& t : kg->triplets()) {
      const size_t i = kg->TripletIndex(t.head, t.relation, t.tail);
      ASSERT_LT(i, kg->num_triplets());
      const auto key = std::make_tuple(t.head, t.relation, t.tail);
      EXPECT_EQ(by_index.emplace(i, key).first->second, key);
    }
    EXPECT_EQ(by_index.size(), all.size());
    EXPECT_EQ(kg->TripletIndex(n, 0, 0), KnowledgeGraph::kNoTriplet);
  }
}

TEST(KnowledgeGraphTest, AdjacencyIncludesBothDirections) {
  KnowledgeGraph kg = TinyKg();
  EntityId b = kg.FindEntity("b");
  // b has outgoing s->c and reverse r^-1->a.
  EXPECT_EQ(kg.Degree(b), 2u);
  std::set<EntityId> nbr_tails;
  for (const auto& nb : kg.Neighbors(b)) nbr_tails.insert(nb.tail);
  EXPECT_TRUE(nbr_tails.count(kg.FindEntity("a")));
  EXPECT_TRUE(nbr_tails.count(kg.FindEntity("c")));
}

TEST(KnowledgeGraphTest, ClassMembership) {
  KnowledgeGraph kg = TinyKg();
  ClassId thing = kg.FindClass("Thing");
  EXPECT_EQ(kg.EntitiesOf(thing).size(), 2u);
  EXPECT_TRUE(kg.HasType(kg.FindEntity("a"), thing));
  EXPECT_FALSE(kg.HasType(kg.FindEntity("c"), thing));
  EXPECT_EQ(kg.ClassesOf(kg.FindEntity("a")).size(), 1u);
}

TEST(KnowledgeGraphTest, TripletsOfIndexesRelationPairs) {
  KnowledgeGraph kg = TinyKg();
  RelationId r = kg.FindRelation("r");
  const auto& pairs = kg.TripletsOf(r);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, kg.FindEntity("a"));
  EXPECT_EQ(pairs[0].second, kg.FindEntity("b"));
  // Reverse relation has the flipped pair.
  const auto& rev = kg.TripletsOf(kg.ReverseOf(r));
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(rev[0].first, kg.FindEntity("b"));
}

TEST(KnowledgeGraphTest, DoubleFinalizeFails) {
  KnowledgeGraph kg = TinyKg();
  EXPECT_FALSE(kg.Finalize().ok());
}

TEST(KnowledgeGraphTest, DuplicateTypeTripletsDeduplicated) {
  KnowledgeGraph kg;
  EntityId e = kg.AddEntity("e");
  ClassId c = kg.AddClass("C");
  kg.AddTypeTriplet(e, c);
  kg.AddTypeTriplet(e, c);
  ASSERT_TRUE(kg.Finalize().ok());
  EXPECT_EQ(kg.ClassesOf(e).size(), 1u);
  EXPECT_EQ(kg.EntitiesOf(c).size(), 1u);
}

// ---------------------------------------------------------------------------
// IO
// ---------------------------------------------------------------------------

TEST(KgIoTest, LoadFromTsv) {
  std::string path = ::testing::TempDir() + "/daakg_kg.tsv";
  ASSERT_TRUE(WriteStringToFile(path,
                                "# comment\n"
                                "alice\tknows\tbob\n"
                                "alice\trdf:type\tPerson\n"
                                "\n"
                                "bob\tlivesIn\tparis\n")
                  .ok());
  auto kg = LoadKgFromTsv(path);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_entities(), 3u);
  EXPECT_EQ(kg->num_base_relations(), 2u);
  EXPECT_EQ(kg->num_classes(), 1u);
  EXPECT_EQ(kg->num_type_triplets(), 1u);
  std::remove(path.c_str());
}

TEST(KgIoTest, MalformedLineIsError) {
  std::string path = ::testing::TempDir() + "/daakg_bad.tsv";
  ASSERT_TRUE(WriteStringToFile(path, "only_two\tfields\n").ok());
  auto kg = LoadKgFromTsv(path);
  EXPECT_FALSE(kg.ok());
  EXPECT_EQ(kg.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(KgIoTest, TaskRoundTrip) {
  AlignmentTask task = MirrorTask();
  std::string dir = ::testing::TempDir() + "/daakg_task";
  ASSERT_TRUE(SaveAlignmentTask(task, dir).ok());
  // A vocabulary file naming one element twice cannot give ids.
  ASSERT_TRUE(WriteStringToFile(dir + "/kg1_entities.tsv", "a\nb\na\n").ok());
  EXPECT_EQ(LoadAlignmentTask(dir).status().code(),
            StatusCode::kInvalidArgument);
  // Directories written before the vocabulary files existed hold triples
  // only; they still load, with ids in first-appearance order.
  for (const char* kg : {"kg1", "kg2"}) {
    for (const char* kind : {"entities", "relations", "classes"}) {
      std::filesystem::remove(dir + "/" + kg + "_" + kind + ".tsv");
    }
  }
  auto loaded = LoadAlignmentTask(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->kg1.num_entities(), task.kg1.num_entities());
  EXPECT_EQ(loaded->kg1.num_base_relations(), task.kg1.num_base_relations());
  EXPECT_EQ(loaded->kg2.num_classes(), task.kg2.num_classes());
  EXPECT_EQ(loaded->gold_entities.size(), task.gold_entities.size());
  EXPECT_EQ(loaded->gold_relations.size(), task.gold_relations.size());
  EXPECT_EQ(loaded->gold_classes.size(), task.gold_classes.size());
  // Gold must survive by *name*, not just count.
  for (const auto& [e1, e2] : loaded->gold_entities) {
    EXPECT_EQ(task.kg1.FindEntity(loaded->kg1.entity_name(e1)) != kInvalidId,
              true);
    EXPECT_TRUE(loaded->IsGoldEntityMatch(e1, e2));
  }
}

void ExpectSameKg(const KnowledgeGraph& got, const KnowledgeGraph& want) {
  ASSERT_EQ(got.num_entities(), want.num_entities());
  ASSERT_EQ(got.num_relations(), want.num_relations());
  ASSERT_EQ(got.num_base_relations(), want.num_base_relations());
  ASSERT_EQ(got.num_classes(), want.num_classes());
  for (EntityId e = 0; e < want.num_entities(); ++e) {
    ASSERT_EQ(got.entity_name(e), want.entity_name(e)) << "entity " << e;
  }
  for (RelationId r = 0; r < want.num_relations(); ++r) {
    ASSERT_EQ(got.relation_name(r), want.relation_name(r)) << "relation " << r;
  }
  for (ClassId c = 0; c < want.num_classes(); ++c) {
    ASSERT_EQ(got.class_name(c), want.class_name(c)) << "class " << c;
  }
  EXPECT_EQ(got.triplets(), want.triplets());
  EXPECT_EQ(got.type_triplets(), want.type_triplets());
}

// Generated tasks hold entities without any triplet; the vocabulary files
// keep them, and every id, across a save/load round trip.
TEST(KgIoTest, GeneratedTasksRoundTripLosslessly) {
  const std::string root = ::testing::TempDir() + "/daakg_roundtrip";
  for (BenchmarkDataset dataset :
       {BenchmarkDataset::kDW, BenchmarkDataset::kDY, BenchmarkDataset::kEnDe,
        BenchmarkDataset::kEnFr}) {
    for (uint64_t seed : {17u, 1u}) {
      SCOPED_TRACE(std::string(BenchmarkDatasetName(dataset)) + " seed " +
                   std::to_string(seed));
      auto task = MakeBenchmarkTask(dataset, 0.2, seed);
      ASSERT_TRUE(task.ok()) << task.status();
      // A directory that does not exist yet is created.
      const std::string dir = root + "/" +
                              BenchmarkDatasetName(dataset) + "_" +
                              std::to_string(seed);
      std::filesystem::remove_all(dir);
      ASSERT_TRUE(SaveAlignmentTask(*task, dir).ok());
      auto loaded = LoadAlignmentTask(dir);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      ExpectSameKg(loaded->kg1, task->kg1);
      ExpectSameKg(loaded->kg2, task->kg2);
      EXPECT_EQ(loaded->gold_entities, task->gold_entities);
      EXPECT_EQ(loaded->gold_relations, task->gold_relations);
      EXPECT_EQ(loaded->gold_classes, task->gold_classes);
    }
  }
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// AlignmentTask
// ---------------------------------------------------------------------------

TEST(AlignmentTaskTest, GoldIndexLookups) {
  AlignmentTask task = MirrorTask();
  EXPECT_EQ(task.GoldEntityMatchOf1(0), 0u);
  EXPECT_TRUE(task.IsGoldEntityMatch(1, 1));
  EXPECT_FALSE(task.IsGoldEntityMatch(1, 2));
  EXPECT_TRUE(task.IsGoldRelationMatch(0, 0));
  EXPECT_TRUE(task.IsGoldClassMatch(1, 1));
  EXPECT_FALSE(task.IsGoldClassMatch(1, 0));
}

TEST(AlignmentTaskTest, IsGoldMatchDispatchesOnKind) {
  AlignmentTask task = MirrorTask();
  EXPECT_TRUE(task.IsGoldMatch(ElementPair{ElementKind::kEntity, 2, 2}));
  EXPECT_TRUE(task.IsGoldMatch(ElementPair{ElementKind::kRelation, 1, 1}));
  EXPECT_TRUE(task.IsGoldMatch(ElementPair{ElementKind::kClass, 0, 0}));
  EXPECT_FALSE(task.IsGoldMatch(ElementPair{ElementKind::kEntity, 2, 3}));
}

TEST(AlignmentTaskTest, SampleSeedSizesAndSubset) {
  AlignmentTask task = MirrorTask();
  Rng rng(1);
  SeedAlignment seed = task.SampleSeed(0.5, &rng);
  EXPECT_EQ(seed.entities.size(), 3u);
  EXPECT_EQ(seed.relations.size(), 1u);
  EXPECT_EQ(seed.classes.size(), 1u);
  for (const auto& [e1, e2] : seed.entities) {
    EXPECT_TRUE(task.IsGoldEntityMatch(e1, e2));
  }
}

TEST(AlignmentTaskTest, SampleSeedAtLeastOneOfEachKind) {
  AlignmentTask task = MirrorTask();
  Rng rng(2);
  SeedAlignment seed = task.SampleSeed(0.01, &rng);
  EXPECT_EQ(seed.entities.size(), 1u);
  EXPECT_EQ(seed.relations.size(), 1u);
  EXPECT_EQ(seed.classes.size(), 1u);
}

TEST(AlignmentTaskTest, SampleSeedDeterministicGivenRng) {
  AlignmentTask task = MirrorTask();
  Rng a(3), b(3);
  SeedAlignment s1 = task.SampleSeed(0.5, &a);
  SeedAlignment s2 = task.SampleSeed(0.5, &b);
  EXPECT_EQ(s1.entities, s2.entities);
}

TEST(AlignmentTaskTest, TestPairsExcludeLabeled) {
  AlignmentTask task = MirrorTask();
  Rng rng(4);
  SeedAlignment seed = task.SampleSeed(0.5, &rng);
  auto test = TestPairs(task.gold_entities, seed.entities);
  EXPECT_EQ(test.size(), task.gold_entities.size() - seed.entities.size());
  for (const auto& tp : test) {
    EXPECT_EQ(std::count(seed.entities.begin(), seed.entities.end(), tp), 0);
  }

  // Partial overlap: a labeled pair that is not gold is ignored, and the
  // rest keep gold order.
  const std::vector<std::pair<uint32_t, uint32_t>> gold = {
      {0, 5}, {1, 6}, {2, 7}, {3, 8}};
  const std::vector<std::pair<uint32_t, uint32_t>> want = {{0, 5}, {3, 8}};
  EXPECT_EQ(TestPairs(gold, {{2, 7}, {1, 6}, {0, 6}}), want);
}

TEST(AlignmentTaskTest, TestPairsFallBackToAllGold) {
  const std::vector<std::pair<uint32_t, uint32_t>> gold = {{0, 1}, {2, 3}};
  EXPECT_EQ(TestPairs(gold, {{2, 3}, {0, 1}, {4, 4}}), gold);
  EXPECT_EQ(TestPairs(gold, gold), gold);
  EXPECT_TRUE(TestPairs({}, {{0, 1}}).empty());
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, ComputeTaskStatsCountsForwardTripletsOnly) {
  AlignmentTask task = MirrorTask();
  TaskStats stats = ComputeTaskStats(task);
  EXPECT_EQ(stats.entities1, 6u);
  EXPECT_EQ(stats.relations1, 2u);  // base relations, no reverse
  EXPECT_EQ(stats.classes1, 2u);
  EXPECT_EQ(stats.triplets1, 5u);  // 3 livesIn + 2 knows, forward only
  EXPECT_EQ(stats.entity_matches, 6u);
  EXPECT_GT(stats.avg_degree1, 0.0);
}

}  // namespace
}  // namespace daakg

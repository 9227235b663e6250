#ifndef DAAKG_TESTS_TEST_UTIL_H_
#define DAAKG_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "kg/alignment_task.h"
#include "kg/synthetic.h"
#include "obs/trace.h"
#include "tensor/matrix.h"
#include "tensor/simd/simd.h"

namespace daakg {
namespace testing_util {

// A handcrafted 6-vs-6 entity task with perfectly mirrored structure:
//   people p0..p2 live in cities c0..c2 via relation livesIn; every person
//   has class Person, every city class City. KG2 mirrors KG1 exactly.
// Gold: identity on everything. Small enough to reason about by hand.
inline AlignmentTask MirrorTask() {
  AlignmentTask task;
  task.name = "mirror";
  auto build = [](KnowledgeGraph* kg, const char* suffix) {
    ClassId person = kg->AddClass(std::string("Person") + suffix);
    ClassId city = kg->AddClass(std::string("City") + suffix);
    RelationId lives = kg->AddRelation(std::string("livesIn") + suffix);
    RelationId knows = kg->AddRelation(std::string("knows") + suffix);
    std::vector<EntityId> p, c;
    for (int i = 0; i < 3; ++i) {
      p.push_back(kg->AddEntity(std::string("p") + std::to_string(i) + suffix));
      kg->AddTypeTriplet(p.back(), person);
    }
    for (int i = 0; i < 3; ++i) {
      c.push_back(kg->AddEntity(std::string("c") + std::to_string(i) + suffix));
      kg->AddTypeTriplet(c.back(), city);
    }
    for (int i = 0; i < 3; ++i) kg->AddTriplet(p[i], lives, c[i]);
    kg->AddTriplet(p[0], knows, p[1]);
    kg->AddTriplet(p[1], knows, p[2]);
    DAAKG_CHECK(kg->Finalize().ok());
  };
  build(&task.kg1, "_a");
  build(&task.kg2, "_b");
  for (uint32_t e = 0; e < 6; ++e) task.gold_entities.emplace_back(e, e);
  for (uint32_t r = 0; r < 2; ++r) task.gold_relations.emplace_back(r, r);
  for (uint32_t c = 0; c < 2; ++c) task.gold_classes.emplace_back(c, c);
  task.BuildGoldIndex();
  return task;
}

// Dense reference for the streamed similarity cells: sim(r, c) =
// simd::ActiveOps().dot(a row r, b row c), computed cell by cell. The tile
// walks compute every cell with the same kernel (an ops.dot4 column is
// ops.dot bit for bit), so their cells equal these exactly.
inline Matrix DenseSim(const Matrix& a, const Matrix& b) {
  const simd::Ops& ops = simd::ActiveOps();
  Matrix sim(a.rows(), b.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < b.rows(); ++c) {
      sim(r, c) = ops.dot(a.RowData(r), b.RowData(c), a.cols());
    }
  }
  return sim;
}

// Number of spans named `name` in a collected trace.
inline size_t CountSpans(const std::vector<obs::TraceEvent>& events,
                         std::string_view name) {
  return std::count_if(
      events.begin(), events.end(),
      [name](const obs::TraceEvent& e) { return name == e.name; });
}

// A small but non-trivial synthetic task for integration tests.
inline AlignmentTask SmallSyntheticTask(uint64_t seed = 7) {
  SyntheticKgSpec spec;
  spec.name = "small";
  spec.num_entities1 = 120;
  spec.num_entities2 = 90;
  spec.num_relations1 = 10;
  spec.num_relations2 = 8;
  spec.num_relation_matches = 6;
  spec.num_classes1 = 6;
  spec.num_classes2 = 5;
  spec.num_class_matches = 4;
  spec.seed = seed;
  auto task = GenerateSyntheticTask(spec);
  DAAKG_CHECK(task.ok());
  return std::move(task).value();
}

}  // namespace testing_util
}  // namespace daakg

#endif  // DAAKG_TESTS_TEST_UTIL_H_

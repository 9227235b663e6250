// google-benchmark micro suites for the hot kernels of the library:
// dense math, the fused training steps, KG index lookups, similarity cache
// refresh, inference power queries and the round's alignment graph build.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "align/joint_model.h"
#include "embedding/trainer.h"
#include "infer/alignment_graph.h"
#include "infer/inference_power.h"
#include "kg/synthetic.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "tensor/topk.h"

namespace daakg {
namespace {

// Vector::Dot: one dispatched simd::Ops::dot.
void BM_VectorDot(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Vector a(dim), b(dim);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Dot(b));
  }
}
BENCHMARK(BM_VectorDot)->Arg(32)->Arg(64)->Arg(256);

void BM_MatrixVectorMultiply(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(2);
  Matrix m(dim, dim);
  m.InitGaussian(&rng, 1.0f);
  Vector x(dim);
  x.InitGaussian(&rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Multiply(x));
  }
}
BENCHMARK(BM_MatrixVectorMultiply)->Arg(32)->Arg(64)->Arg(128);

// The one cosine, value only: three dispatched dots (a.b, a.a, b.b).
void BM_Cosine(benchmark::State& state) {
  Rng rng(3);
  Vector a(64), b(64);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cosine(a, b));
  }
}
BENCHMARK(BM_Cosine);

// The fused TransE margin step (TransE::TrainPair) on dim-64 rows of a
// 1024-entity table, cycling through fixed (h, t, t') triples. A margin of
// 1e6 keeps every loss positive, so each iteration runs the full step: both
// norms and all four row updates.
void BM_TransEStep(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  constexpr size_t kEntities = 1024, kRelations = 16, kTriples = 4096;
  Rng rng(8);
  Matrix entities(kEntities, dim), relations(kRelations, dim);
  entities.InitGaussian(&rng, 0.1f);
  relations.InitGaussian(&rng, 0.1f);
  std::vector<uint32_t> ids(4 * kTriples);
  for (size_t i = 0; i < kTriples; ++i) {
    ids[4 * i] = static_cast<uint32_t>(rng.NextUint64(kEntities));
    ids[4 * i + 1] = static_cast<uint32_t>(rng.NextUint64(kRelations));
    ids[4 * i + 2] = static_cast<uint32_t>(rng.NextUint64(kEntities));
    ids[4 * i + 3] = static_cast<uint32_t>(rng.NextUint64(kEntities));
  }
  const simd::Ops& ops = simd::ActiveOps();
  size_t i = 0;
  for (auto _ : state) {
    const uint32_t* q = &ids[4 * i];
    benchmark::DoNotOptimize(ops.transe_step(
        entities.RowData(q[0]), relations.RowData(q[1]),
        entities.RowData(q[2]), entities.RowData(q[3]), dim, 1e6f, 0.05f));
    benchmark::ClobberMemory();
    i = (i + 1) % kTriples;
  }
}
BENCHMARK(BM_TransEStep)->Arg(64);

// The joint entity step's A_ent update with the A_ent^T product after it,
// on a dim x dim matrix. The sign of alpha alternates, so the matrix stays
// near its start.
void BM_AddOuterThenTransposeMultiply(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(9);
  Matrix m(dim, dim);
  m.InitGaussian(&rng, 0.1f);
  Vector a(dim), b(dim), y(dim);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  float alpha = 1e-3f;
  for (auto _ : state) {
    m.AddOuterThenTransposeMultiply(alpha, a.data(), b.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
    alpha = -alpha;
  }
}
BENCHMARK(BM_AddOuterThenTransposeMultiply)->Arg(64);

// --------------------------------------------------------------------------
// Pool-build top-K: seed scalar algorithm vs the blocked streaming kernel.
// Both compute mutual top-K over the same random signature matrices; the
// acceptance bar for the kernel is >= 3x over the seed loop at 2k x 2k.
// --------------------------------------------------------------------------

struct SimBenchInput {
  Matrix a, b;
};

SimBenchInput& SimInput(size_t n, size_t dim) {
  static std::map<std::pair<size_t, size_t>, SimBenchInput*> cache;
  auto key = std::make_pair(n, dim);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto* input = new SimBenchInput{Matrix(n, dim), Matrix(n, dim)};
    Rng rng(7);
    input->a.InitGaussian(&rng, 1.0f);
    input->b.InitGaussian(&rng, 1.0f);
    it = cache.emplace(key, input).first;
  }
  return *it->second;
}

// The pre-kernel pool build: materialize every row of the full similarity
// matrix, then TopKIndices per row and per column.
void BM_PoolTopK_SeedScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t k = 25;
  SimBenchInput& input = SimInput(n, dim);
  for (auto _ : state) {
    Matrix sim(n, n);
    for (size_t r = 0; r < n; ++r) {
      const float* ra = input.a.RowData(r);
      for (size_t c = 0; c < n; ++c) {
        const float* rb = input.b.RowData(c);
        float acc = 0.0f;
        for (size_t i = 0; i < dim; ++i) acc += ra[i] * rb[i];
        sim(r, c) = acc;
      }
    }
    size_t kept = 0;
    for (size_t r = 0; r < n; ++r) {
      std::vector<float> row(sim.RowData(r), sim.RowData(r) + n);
      kept += TopKIndices(row, k).size();
    }
    for (size_t c = 0; c < n; ++c) {
      std::vector<float> col(n);
      for (size_t r = 0; r < n; ++r) col[r] = sim(r, c);
      kept += TopKIndices(col, k).size();
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n);
}
BENCHMARK(BM_PoolTopK_SeedScalar)
    ->Args({512, 64})
    ->Args({2048, 64})
    ->Unit(benchmark::kMillisecond);

void BM_PoolTopK_Blocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t k = 25;
  SimBenchInput& input = SimInput(n, dim);
  for (auto _ : state) {
    SimTopK topk = BlockedSimTopK(input.a, input.b, k, k);
    benchmark::DoNotOptimize(topk.row_topk.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n);
}
BENCHMARK(BM_PoolTopK_Blocked)
    ->Args({512, 64})
    ->Args({2048, 64})
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// SIMD kernel backend: the scalar reference dot kernels against the
// runtime-dispatched backend (the same bits, see simd.h). GFLOPS counters
// let BENCH_kernels.json record the dispatched / scalar throughput ratio
// directly. The blocked kernels run on the dispatched backend only.
// --------------------------------------------------------------------------

const simd::Ops& BenchOps(bool dispatched) {
  return dispatched ? simd::ActiveOps() : simd::ScalarOps();
}

void KernelDotBench(benchmark::State& state, bool dispatched) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const simd::Ops& ops = BenchOps(dispatched);
  Rng rng(11);
  Vector a(dim), b(dim);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.dot(a.data(), b.data(), dim));
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(dim) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_KernelDot_Scalar(benchmark::State& state) {
  KernelDotBench(state, /*dispatched=*/false);
}
void BM_KernelDot_Dispatched(benchmark::State& state) {
  KernelDotBench(state, /*dispatched=*/true);
}
BENCHMARK(BM_KernelDot_Scalar)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_KernelDot_Dispatched)->Arg(64)->Arg(256)->Arg(1024);

void KernelDot4Bench(benchmark::State& state, bool dispatched) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const simd::Ops& ops = BenchOps(dispatched);
  Rng rng(12);
  Vector a(dim);
  a.InitGaussian(&rng, 1.0f);
  Matrix b(4, dim);
  b.InitGaussian(&rng, 1.0f);
  float out[4];
  for (auto _ : state) {
    ops.dot4(a.data(), b.RowData(0), b.RowData(1), b.RowData(2), b.RowData(3),
             dim, out);
    benchmark::DoNotOptimize(out[0]);
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      8.0 * static_cast<double>(dim) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_KernelDot4_Scalar(benchmark::State& state) {
  KernelDot4Bench(state, /*dispatched=*/false);
}
void BM_KernelDot4_Dispatched(benchmark::State& state) {
  KernelDot4Bench(state, /*dispatched=*/true);
}
BENCHMARK(BM_KernelDot4_Scalar)->Arg(64)->Arg(256);
BENCHMARK(BM_KernelDot4_Dispatched)->Arg(64)->Arg(256);

void BM_KernelPoolTopK_Dispatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 64;
  const size_t k = 25;
  SimBenchInput& input = SimInput(n, dim);
  for (auto _ : state) {
    SimTopK topk = BlockedSimTopK(input.a, input.b, k, k);
    benchmark::DoNotOptimize(topk.row_topk.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * dim * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelPoolTopK_Dispatched)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

AlignmentTask& BenchTask() {
  static AlignmentTask* task = [] {
    SyntheticKgSpec spec;
    spec.num_entities1 = 300;
    spec.num_entities2 = 210;
    spec.num_relations1 = 15;
    spec.num_relations2 = 11;
    spec.num_relation_matches = 8;
    spec.num_classes1 = 8;
    spec.num_classes2 = 6;
    spec.num_class_matches = 5;
    spec.seed = 3;
    return new AlignmentTask(std::move(GenerateSyntheticTask(spec)).value());
  }();
  return *task;
}

void BM_KgNeighborScan(benchmark::State& state) {
  const AlignmentTask& task = BenchTask();
  size_t e = 0;
  for (auto _ : state) {
    size_t degree_sum = 0;
    for (const auto& nb : task.kg1.Neighbors(
             static_cast<EntityId>(e % task.kg1.num_entities()))) {
      degree_sum += nb.tail;
    }
    benchmark::DoNotOptimize(degree_sum);
    ++e;
  }
}
BENCHMARK(BM_KgNeighborScan);

void BM_KgHasTriplet(benchmark::State& state) {
  const AlignmentTask& task = BenchTask();
  const auto& trips = task.kg1.triplets();
  size_t i = 0;
  for (auto _ : state) {
    const Triplet& t = trips[i % trips.size()];
    benchmark::DoNotOptimize(task.kg1.HasTriplet(t.head, t.relation, t.tail));
    ++i;
  }
}
BENCHMARK(BM_KgHasTriplet);

// The round's graph build over a pool shaped like the generator's: each KG1
// entity with its gold partner and the gold partners of its first three
// neighbours, plus every base relation pair and every class pair.
void BM_AlignmentGraphBuild(benchmark::State& state) {
  const AlignmentTask& task = BenchTask();
  std::vector<EntityId> gold(task.kg1.num_entities(), kInvalidId);
  for (const auto& [e1, e2] : task.gold_entities) gold[e1] = e2;
  std::vector<ElementPair> pool;
  for (EntityId e1 = 0; e1 < task.kg1.num_entities(); ++e1) {
    if (gold[e1] != kInvalidId) {
      pool.push_back(ElementPair{ElementKind::kEntity, e1, gold[e1]});
    }
    const auto& nbrs = task.kg1.Neighbors(e1);
    for (size_t k = 0; k < std::min<size_t>(3, nbrs.size()); ++k) {
      const EntityId e2 = gold[nbrs[k].tail];
      if (e2 != kInvalidId) {
        pool.push_back(ElementPair{ElementKind::kEntity, e1, e2});
      }
    }
  }
  for (uint32_t r1 = 0; r1 < task.kg1.num_base_relations(); ++r1) {
    for (uint32_t r2 = 0; r2 < task.kg2.num_base_relations(); ++r2) {
      pool.push_back(ElementPair{ElementKind::kRelation, r1, r2});
    }
  }
  for (uint32_t c1 = 0; c1 < task.kg1.num_classes(); ++c1) {
    for (uint32_t c2 = 0; c2 < task.kg2.num_classes(); ++c2) {
      pool.push_back(ElementPair{ElementKind::kClass, c1, c2});
    }
  }
  for (auto _ : state) {
    const AlignmentGraph graph(&task, pool);
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.counters["nodes"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_AlignmentGraphBuild)->Unit(benchmark::kMicrosecond);

struct TrainedModels {
  std::unique_ptr<KgeModel> m1, m2;
  std::unique_ptr<JointAlignmentModel> joint;
};

TrainedModels& Models() {
  static TrainedModels* models = [] {
    auto* out = new TrainedModels();
    KgeConfig kge;
    kge.dim = 32;
    kge.epochs = 5;
    out->m1 = MakeKgeModel(KgeModelKind::kTransE, &BenchTask().kg1, kge);
    out->m2 = MakeKgeModel(KgeModelKind::kTransE, &BenchTask().kg2, kge);
    Rng rng(4);
    out->m1->Init(&rng);
    out->m2->Init(&rng);
    JointAlignConfig cfg;
    out->joint = std::make_unique<JointAlignmentModel>(
        out->m1.get(), out->m2.get(), nullptr, nullptr, cfg);
    out->joint->Init(&rng);
    KgeTrainer t1(out->m1.get(), nullptr);
    KgeTrainer t2(out->m2.get(), nullptr);
    Rng r1(5), r2(6);
    t1.Train(&r1);
    t2.Train(&r2);
    return out;
  }();
  return *models;
}

void BM_SimilarityCacheRefresh(benchmark::State& state) {
  TrainedModels& models = Models();
  for (auto _ : state) {
    // RefreshCaches recomputes only when a parameter version moved; bump
    // KG1's (without changing a value) so every iteration recomputes.
    models.m1->mutable_entities();
    models.joint->RefreshCaches();
  }
}
BENCHMARK(BM_SimilarityCacheRefresh)->Unit(benchmark::kMillisecond);

void BM_InferencePowerQuery(benchmark::State& state) {
  TrainedModels& models = Models();
  models.joint->RefreshCaches();
  // Pool: gold matches + schema pairs (small but realistic).
  std::vector<ElementPair> pool;
  for (const auto& [e1, e2] : BenchTask().gold_entities) {
    pool.push_back(ElementPair{ElementKind::kEntity, e1, e2});
  }
  for (uint32_t r1 = 0; r1 < BenchTask().kg1.num_base_relations(); ++r1) {
    for (uint32_t r2 = 0; r2 < BenchTask().kg2.num_base_relations(); ++r2) {
      pool.push_back(ElementPair{ElementKind::kRelation, r1, r2});
    }
  }
  static AlignmentGraph* graph = new AlignmentGraph(&BenchTask(), pool);
  InferenceConfig icfg;
  static InferenceEngine* engine =
      new InferenceEngine(graph, models.joint.get(), icfg);
  static bool precomputed = [] {
    engine->PrecomputeEdgeCosts();
    return true;
  }();
  (void)precomputed;
  HopSearch search(graph->num_nodes());
  uint32_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->PowerFrom(q % graph->num_nodes(), &search));
    ++q;
  }
}
BENCHMARK(BM_InferencePowerQuery)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace daakg

// Custom main so the report (and BENCH_kernels.json) records which SIMD
// backend the dispatched benchmarks actually ran on.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("daakg_simd_backend",
                              daakg::simd::ActiveOps().name);
  benchmark::AddCustomContext(
      "daakg_avx2_available", daakg::simd::Avx2Available() ? "yes" : "no");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

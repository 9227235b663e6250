// End-to-end benchmark of the DAAKG pipeline through the library's public
// API. One process runs one workload:
//
//   seed-train   D-W analogue, CompGCN: Train from a 20% seed, Evaluate,
//                ExtractAlignment (the training hot path).
//   active-loop  D-Y analogue, TransE, DaakgStrategy (Algorithm 2):
//                ActiveAlignmentLoop::Run to the last checkpoint.
//   batch-plan   EN-FR analogue at a scale where |E1| x |E2| dominates: a
//                warm start in set-up, then planning rounds with no
//                retraining (refresh -> pool/index -> graph/inference ->
//                selection).
//
// Usage:
//   daakg_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// The task is set up several times (setup_s is their median); then whole
// units (a training, a loop, a planning session) repeat until --seconds have
// passed, at least kMinOps of them. Every operation inside them is checked
// (checks.h); checks that copy model data run after peak_rss_mb is read (on
// batch-plan, after the timed phase). With --trace 1 the first unit runs
// once more under a TraceSession and the per-layer metrics come from it.
// stdout ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "context {...}" line and "# " table lines.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "active/oracle.h"
#include "active/pool.h"
#include "active/selection.h"
#include "active/strategies.h"
#include "checks.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/active_loop.h"
#include "core/daakg.h"
#include "infer/alignment_graph.h"
#include "infer/inference_power.h"
#include "kg/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"

namespace perfbench {
namespace {

using daakg::ActiveAlignmentLoop;
using daakg::ActiveLoopConfig;
using daakg::AlignmentGraph;
using daakg::AlignmentTask;
using daakg::BenchmarkDataset;
using daakg::DaakgAligner;
using daakg::DaakgConfig;
using daakg::DaakgStrategy;
using daakg::ElementKind;
using daakg::ElementPair;
using daakg::EvalResult;
using daakg::InferenceEngine;
using daakg::PoolConfig;
using daakg::PoolGenerator;
using daakg::Rng;
using daakg::SeedAlignment;
using daakg::SelectionContext;
using daakg::StrFormat;

// ---- workload parameters (the README lists them) ---------------------------

// Each workload runs on one fixed KG pair, generated with this seed, as the
// paper's datasets are fixed; --seed draws the seed alignment, the model
// initialisation and the loop's randomness (the OpenEA "fold").
constexpr uint64_t kDatasetSeed = 17;

constexpr int kMinSetups = 4;             // setup_s is a median over these
constexpr double kMinSetupSeconds = 4.0;  // cheap set-ups repeat until this
constexpr int kMaxSetups = 50;

constexpr double kSeedTrainScale = 0.2;
constexpr double kSeedTrainFraction = 0.2;

constexpr double kActiveScale = 0.4;
constexpr size_t kActiveBatch = 8;
constexpr size_t kActivePoolTopN = 25;

constexpr double kPlanScale = 2.0;
constexpr double kPlanSeedFraction = 0.2;
constexpr size_t kPlanBatch = 50;
constexpr size_t kPlanPoolTopN = 15;
constexpr size_t kPlanRounds = 40;       // planned batches per session
constexpr size_t kPlanTargetMatches = 300;
constexpr size_t kPlanCheckedRows = 24;  // KG1 rows of the top-N check

// Quality from Evaluate and the benchmark's double-precision recomputation
// may differ by stale incremental-cache cells and float rounding on
// near-ties; this is the largest difference accepted.
constexpr double kRankTolerance = 0.01;
// "Well above chance": entity H@1 at least this multiple of 1 / |E2|.
constexpr double kChanceMultiple = 10.0;

// ---- small utilities ---------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// peak_rss_mb, read once: before the first check that copies model data
// (EvaluateAndCheck), or at the end of the timed phase if that comes first.
// ru_maxrss only rises, so a later read could include the checks' own
// allocations.
double g_peak_rss_mb = 0.0;

void FreezePeakRss() {
  if (g_peak_rss_mb == 0.0) g_peak_rss_mb = PeakRssMb();
}

uint64_t CounterValue(const char* name) {
  return daakg::obs::GlobalMetrics().GetCounter(name)->Value();
}

double GaugeValue(const char* name) {
  return daakg::obs::GlobalMetrics().GetGauge(name)->Value();
}

// PairKeys of the given entity, relation and class pairs.
std::unordered_set<uint64_t> PairKeys(const IdPairs& entities,
                                      const IdPairs& relations,
                                      const IdPairs& classes) {
  std::unordered_set<uint64_t> keys;
  const std::pair<ElementKind, const IdPairs*> kinds[] = {
      {ElementKind::kEntity, &entities},
      {ElementKind::kRelation, &relations},
      {ElementKind::kClass, &classes}};
  for (const auto& [kind, pairs] : kinds) {
    for (const auto& [a, b] : *pairs) keys.insert(PairKey({kind, a, b}));
  }
  return keys;
}

// The task's gold pairs of every kind (the benchmark's own oracle).
std::unordered_set<uint64_t> GoldKeys(const AlignmentTask& task) {
  return PairKeys(task.gold_entities, task.gold_relations, task.gold_classes);
}

AlignmentTask MakeTask(BenchmarkDataset dataset, double scale, uint64_t seed) {
  auto task = daakg::MakeBenchmarkTask(dataset, scale, seed);
  if (!task.ok()) {
    std::fprintf(stderr, "task generation failed: %s\n",
                 task.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(task.value());
}

std::unique_ptr<DaakgAligner> MakeAligner(const AlignmentTask* task,
                                          const DaakgConfig& config) {
  auto aligner = DaakgAligner::Create(task, config);
  if (!aligner.ok()) {
    std::fprintf(stderr, "DaakgAligner::Create failed: %s\n",
                 aligner.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(aligner.value());
}

// ---- results -----------------------------------------------------------------

// The seven end-to-end quality metrics.
struct Quality {
  double ent_h1 = 0, ent_mrr = 0, ent_f1 = 0;
  double rel_h1 = 0, rel_f1 = 0, cls_h1 = 0, cls_f1 = 0;

  bool operator==(const Quality&) const = default;
};

Quality QualityOf(const EvalResult& e) {
  return Quality{e.ent_rank.hits_at_1, e.ent_rank.mrr, e.ent_prf.f1,
                 e.rel_rank.hits_at_1, e.rel_prf.f1,  e.cls_rank.hits_at_1,
                 e.cls_prf.f1};
}

// What one unit of a workload (a training, a loop, a planning session)
// measured.
struct OpResult {
  // Seed of the unit's inputs; units with equal inputs in one run must give
  // equal results.
  uint64_t inputs = 0;
  double wall = 0.0;
  std::vector<double> waits;  // round waits (active-loop, batch-plan)
  Quality quality;
  double labels_used = 0.0;
  double pool_recall = 0.0;
  // Per-layer figures timed or counted from outside the library.
  std::map<std::string, double> layers;
};

template <typename Get>
double MedianOver(const std::vector<OpResult>& ops, Get get) {
  std::vector<double> v;
  for (const OpResult& op : ops) v.push_back(get(op));
  return Median(v);
}

// Each quality metric's median over the units of a run.
Quality MedianQuality(const std::vector<OpResult>& ops) {
  return Quality{
      MedianOver(ops, [](const OpResult& o) { return o.quality.ent_h1; }),
      MedianOver(ops, [](const OpResult& o) { return o.quality.ent_mrr; }),
      MedianOver(ops, [](const OpResult& o) { return o.quality.ent_f1; }),
      MedianOver(ops, [](const OpResult& o) { return o.quality.rel_h1; }),
      MedianOver(ops, [](const OpResult& o) { return o.quality.rel_f1; }),
      MedianOver(ops, [](const OpResult& o) { return o.quality.cls_h1; }),
      MedianOver(ops, [](const OpResult& o) { return o.quality.cls_f1; })};
}

// Self and summed time of every span name of a traced run.
struct TraceSummary {
  std::map<std::string, double> self;   // span name -> self seconds
  std::map<std::string, double> total;  // span name -> summed durations
  size_t events = 0;

  double Total(const char* name) const {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  }
};

// Operations attempted and failed over a run.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;

  void Record(const OpChecks& checks) {
    ++attempted;
    if (!checks.ok()) {
      ++failed;
      checks.Report();
    }
  }
};

// A unit repeated on the same inputs must give the same results; a repeat
// that does not counts as one more failed operation.
void CheckRepeat(const OpResult& first, const OpResult& again, Tally* tally) {
  if (again.quality == first.quality &&
      again.labels_used == first.labels_used &&
      again.pool_recall == first.pool_recall) {
    return;
  }
  std::fprintf(stderr, "CHECK FAILED: a repeated unit (inputs %llu) "
               "gave different results\n",
               static_cast<unsigned long long>(first.inputs));
  ++tally->failed;
}

// Runs Evaluate and ExtractAlignment (timed into `layers`) and checks them:
// Evaluate against the benchmark's recomputation, the extraction one-to-one
// with valid ids, and its P/R/F1 against the task's gold. Returns Evaluate's
// scores.
Quality EvaluateAndCheck(DaakgAligner* aligner, OpChecks* checks,
                         std::map<std::string, double>* layers) {
  const AlignmentTask& task = aligner->task();
  double t0 = Now();
  const EvalResult eval = aligner->Evaluate();
  (*layers)["core.evaluate_s"] += Now() - t0;
  t0 = Now();
  const DaakgAligner::Alignment extracted = aligner->ExtractAlignment();
  (*layers)["core.extract_s"] += Now() - t0;

  FreezePeakRss();

  const SeedAlignment& labeled = aligner->labeled();
  const IdPairs ent_test = TestPairs(task.gold_entities, labeled.entities);
  const IdPairs rel_test = TestPairs(task.gold_relations, labeled.relations);
  const IdPairs cls_test = TestPairs(task.gold_classes, labeled.classes);

  const Ranking own = RecomputeEntityRanking(*aligner->joint(), ent_test);
  checks->Expect(std::fabs(own.hits_at_1 - eval.ent_rank.hits_at_1) <=
                    kRankTolerance,
                StrFormat("entity H@1 %.4f, recomputed %.4f",
                          eval.ent_rank.hits_at_1, own.hits_at_1));
  checks->Expect(std::fabs(own.mrr - eval.ent_rank.mrr) <= kRankTolerance,
                StrFormat("entity MRR %.4f, recomputed %.4f",
                          eval.ent_rank.mrr, own.mrr));
  const double chance =
      kChanceMultiple / static_cast<double>(task.kg2.num_entities());
  checks->Expect(eval.ent_rank.hits_at_1 >= chance,
                StrFormat("entity H@1 %.4f not above %.0fx chance",
                          eval.ent_rank.hits_at_1, kChanceMultiple));

  const auto one_to_one = [&](const IdPairs& pairs, size_t n1, size_t n2,
                              const char* kind) {
    const std::string v = OneToOneViolation(pairs, n1, n2);
    checks->Expect(v.empty(), StrFormat("%s extraction: %s", kind, v.c_str()));
  };
  one_to_one(extracted.entities, task.kg1.num_entities(),
             task.kg2.num_entities(), "entity");
  one_to_one(extracted.relations, task.kg1.num_base_relations(),
             task.kg2.num_base_relations(), "relation");
  one_to_one(extracted.classes, task.kg1.num_classes(),
             task.kg2.num_classes(), "class");

  // Evaluate's F1 is the greedy one-to-one matching scored on the test
  // pairs; the extraction is that same matching, so the benchmark's own
  // scoring of it must give the same F1.
  const auto same_f1 = [&](const IdPairs& predicted, const IdPairs& test,
                           double reported, const char* kind) {
    const Prf prf = ScoreAgainstGold(predicted, test);
    checks->Expect(std::fabs(prf.f1 - reported) <= 1e-9,
                  StrFormat("%s F1 %.6f, extraction scores %.6f", kind,
                            reported, prf.f1));
  };
  same_f1(extracted.entities, ent_test, eval.ent_prf.f1, "entity");
  same_f1(extracted.relations, rel_test, eval.rel_prf.f1, "relation");
  same_f1(extracted.classes, cls_test, eval.cls_prf.f1, "class");
  const Prf full = ScoreAgainstGold(extracted.entities, task.gold_entities);
  checks->Expect(full.precision >= chance,
                StrFormat("entity extraction precision %.4f vs all gold",
                          full.precision));
  return QualityOf(eval);
}

// ---- workloads -----------------------------------------------------------------
//
// Each workload class provides what RunWorkload needs to know about it:
//   kMinOps         units the timed phase runs at least
//   kHasRounds      whether it plans rounds (round waits, labels_used,
//                   pool_recall, an index backend)
//   kWallLayers     the layer times that add up to wall_s
//   Describe(), task()
//   Setup(seed, layers)     one set-up, timed into setup_s
//   Run(tally, op)          one unit of the timed phase
//   Finish(tally, ops, layers)
//                   after the timed phase: the checks left for it, and the
//                   run's quality metrics
//   TraceLayers(summary, layers)
//                   layer times read from the traced unit's spans

// ---- seed-train ------------------------------------------------------------

class SeedTrain {
 public:
  static constexpr size_t kMinOps = 1;
  static constexpr bool kHasRounds = false;
  static constexpr const char* kWallLayers[] = {
      "core.train_s", "core.evaluate_s", "core.extract_s"};

  static DaakgConfig Config(uint64_t seed) {
    DaakgConfig cfg;
    cfg.kge_model = daakg::KgeModelKind::kCompGcn;
    cfg.kge.dim = 32;
    cfg.align.align_epochs = 60;
    cfg.seed = seed;
    return cfg;
  }

  std::string Describe() const {
    return StrFormat("D-W scale %.2f (%zu x %zu entities), CompGCN dim 32, "
                     "60 align epochs, %.0f%% seed",
                     kSeedTrainScale, task_.kg1.num_entities(),
                     task_.kg2.num_entities(), 100 * kSeedTrainFraction);
  }

  void Setup(uint64_t seed, std::map<std::string, double>* layers) {
    seed_ = seed;
    const double t0 = Now();
    task_ = MakeTask(BenchmarkDataset::kDW, kSeedTrainScale, kDatasetSeed);
    (*layers)["kg.generate_s"] = Now() - t0;
  }

  const AlignmentTask& task() const { return task_; }

  OpResult Run(Tally* tally, size_t /*op*/) {
    OpResult r;
    r.inputs = seed_;
    const double t0 = Now();
    auto aligner = MakeAligner(&task_, Config(seed_));
    Rng rng(seed_ ^ 0x5EEDULL);
    const SeedAlignment seed = task_.SampleSeed(kSeedTrainFraction, &rng);
    aligner->Train(seed);
    r.layers["core.train_s"] = Now() - t0;
    OpChecks checks("training");
    r.quality = EvaluateAndCheck(aligner.get(), &checks, &r.layers);
    tally->Record(checks);
    r.wall = r.layers["core.train_s"] + r.layers["core.evaluate_s"] +
             r.layers["core.extract_s"];
    return r;
  }

  Quality Finish(Tally* /*tally*/, const std::vector<OpResult>& ops,
                 std::map<std::string, double>* /*layers*/) {
    return MedianQuality(ops);
  }

  void TraceLayers(const TraceSummary& summary,
                   std::map<std::string, double>* layers) const {
    (*layers)["align.refresh_s"] = summary.Total("align.refresh_caches");
  }

 private:
  uint64_t seed_ = 0;
  AlignmentTask task_;
};

// ---- active-loop -------------------------------------------------------------

// Answers from the task's gold pairs and timestamps every question.
class TimedOracle : public daakg::Oracle {
 public:
  explicit TimedOracle(const std::unordered_set<uint64_t>* gold)
      : gold_(gold) {}

  bool Label(const ElementPair& pair) override {
    ++queries_;
    times_.push_back(Now());
    const uint64_t key = PairKey(pair);
    if (!asked_.insert(key).second) ++repeats_;
    const bool match = gold_->count(key) > 0;
    matches_ += match ? 1 : 0;
    return match;
  }

  const std::vector<double>& times() const { return times_; }
  size_t matches() const { return matches_; }
  size_t repeats() const { return repeats_; }

 private:
  const std::unordered_set<uint64_t>* gold_;
  std::unordered_set<uint64_t> asked_;
  std::vector<double> times_;
  size_t matches_ = 0;
  size_t repeats_ = 0;
};

// DaakgStrategy (Algorithm 2) seen from outside: records when each batch is
// ready and how long selection took, and checks every batch. The checks run
// after the batch is ready and before the loop hands it to the oracle, so
// they fall outside every round wait; their time is kept apart so that
// wall_s can leave it out.
class TimedStrategy : public daakg::SelectionStrategy {
 public:
  TimedStrategy(const AlignmentTask* task,
                const std::unordered_set<uint64_t>* gold)
      : task_(task), gold_(gold) {}

  std::string name() const override { return inner_.name(); }

  std::vector<uint32_t> SelectBatch(const SelectionContext& ctx,
                                    size_t batch_size, Rng* rng) override {
    const double t0 = Now();
    std::vector<uint32_t> batch = inner_.SelectBatch(ctx, batch_size, rng);
    const double t1 = Now();
    select_seconds_ += t1 - t0;
    ready_.push_back(t1);
    sizes_.push_back(batch.size());
    violations_.push_back(BatchViolation(batch, *ctx.labeled, batch_size));
    const auto& pool = ctx.engine->graph().pool();
    recalls_.push_back(GoldRecall(pool, *gold_, *task_));
    last_pool_entities_ = static_cast<double>(std::count_if(
        pool.begin(), pool.end(),
        [](const ElementPair& p) { return p.kind == ElementKind::kEntity; }));
    check_seconds_ += Now() - t1;
    return batch;
  }

  const std::vector<double>& ready() const { return ready_; }
  const std::vector<size_t>& sizes() const { return sizes_; }
  const std::vector<std::string>& violations() const { return violations_; }
  const std::vector<double>& recalls() const { return recalls_; }
  double select_seconds() const { return select_seconds_; }
  double check_seconds() const { return check_seconds_; }
  double last_pool_entities() const { return last_pool_entities_; }

 private:
  const AlignmentTask* task_;
  const std::unordered_set<uint64_t>* gold_;
  DaakgStrategy inner_{/*use_partitioning=*/true};
  std::vector<double> ready_;
  std::vector<size_t> sizes_;
  std::vector<std::string> violations_;
  std::vector<double> recalls_;
  double select_seconds_ = 0.0;
  double check_seconds_ = 0.0;
  double last_pool_entities_ = 0.0;
};

class ActiveLoop {
 public:
  // Loops per run, on loop seeds kMinOps * seed + 0, 1, ...: averaging two
  // loops halves the spread that the loop's seed-dependent path adds.
  static constexpr size_t kMinOps = 2;
  static constexpr bool kHasRounds = true;
  static constexpr const char* kWallLayers[] = {
      "core.train_s",    "core.fine_tune_s", "align.refresh_s",
      "index.build_s",   "active.pool_s",    "infer.graph_s",
      "active.select_s", "core.evaluate_s",  "core.extract_s"};

  static DaakgConfig Config(uint64_t seed) {
    DaakgConfig cfg;
    cfg.kge_model = daakg::KgeModelKind::kTransE;
    cfg.align.align_epochs = 50;
    cfg.fine_tune_epochs = 4;
    cfg.seed = seed;
    return cfg;
  }

  static ActiveLoopConfig LoopConfig(uint64_t seed) {
    ActiveLoopConfig cfg;
    cfg.batch_size = kActiveBatch;
    cfg.initial_seed_fraction = 0.05;
    cfg.report_fractions = {0.1, 0.2, 0.3};
    cfg.pool.top_n = kActivePoolTopN;
    cfg.seed = seed;
    return cfg;
  }

  std::string Describe() const {
    return StrFormat("D-Y scale %.2f (%zu x %zu entities), TransE, 50 align "
                     "epochs, 4 fine-tune epochs, DaakgStrategy (Algorithm 2), "
                     "batch %zu, pool top-%zu, 5%% seed, checkpoints "
                     "0.1, 0.2, 0.3",
                     kActiveScale, task_.kg1.num_entities(),
                     task_.kg2.num_entities(), kActiveBatch, kActivePoolTopN);
  }

  void Setup(uint64_t seed, std::map<std::string, double>* layers) {
    seed_ = seed;
    const double t0 = Now();
    task_ = MakeTask(BenchmarkDataset::kDY, kActiveScale, kDatasetSeed);
    (*layers)["kg.generate_s"] = Now() - t0;
  }

  const AlignmentTask& task() const { return task_; }

  OpResult Run(Tally* tally, size_t op) {
    OpResult r;
    r.inputs = kMinOps * seed_ + op % kMinOps;
    const ActiveLoopConfig loop_cfg = LoopConfig(r.inputs);
    auto aligner = MakeAligner(&task_, Config(r.inputs));
    const std::unordered_set<uint64_t> gold = GoldKeys(task_);
    TimedOracle oracle(&gold);
    TimedStrategy strategy(&task_, &gold);
    auto loop = ActiveAlignmentLoop::Create(&task_, aligner.get(), &strategy,
                                            &oracle, loop_cfg);
    if (!loop.ok()) {
      std::fprintf(stderr, "ActiveAlignmentLoop::Create failed: %s\n",
                   loop.status().ToString().c_str());
      std::exit(2);
    }
    const double t0 = Now();
    const std::vector<daakg::ActiveRoundReport> reports = (*loop)->Run();
    const double run_seconds = Now() - t0;

    // One operation per round: its batch checks.
    const size_t rounds = strategy.ready().size();
    for (size_t k = 0; k < rounds; ++k) {
      OpChecks checks(StrFormat("active round %zu", k + 1));
      checks.Expect(strategy.violations()[k].empty(),
                    strategy.violations()[k]);
      tally->Record(checks);
    }
    // Round wait k: the last label of batch k-1 handed in -> batch k ready.
    size_t labeled_so_far = 0;
    for (size_t k = 0; k < rounds; ++k) {
      if (k > 0 && labeled_so_far > 0 &&
          labeled_so_far <= oracle.times().size()) {
        r.waits.push_back(strategy.ready()[k] -
                          oracle.times()[labeled_so_far - 1]);
      }
      labeled_so_far += strategy.sizes()[k];
    }

    // The training with its extraction: loop-level checks, then the model.
    OpChecks checks("active loop");
    Rng any_rng(1);
    const SeedAlignment seed =
        task_.SampleSeed(loop_cfg.initial_seed_fraction, &any_rng);
    const size_t seed_size =
        seed.entities.size() + seed.relations.size() + seed.classes.size();
    const size_t total = task_.gold_entities.size() +
                         task_.gold_relations.size() +
                         task_.gold_classes.size();
    const size_t found = seed_size + oracle.matches();
    checks.Expect(!reports.empty(), "no checkpoint reports");
    checks.Expect(oracle.repeats() == 0,
                  StrFormat("%zu pairs asked twice", oracle.repeats()));
    checks.Expect(labeled_so_far == oracle.queries(),
                  StrFormat("batches hold %zu pairs, oracle asked %zu",
                            labeled_so_far, oracle.queries()));
    const double last_fraction = loop_cfg.report_fractions.back();
    checks.Expect(static_cast<double>(found) >=
                      last_fraction * static_cast<double>(total),
                  StrFormat("last checkpoint %.2f not reached (%zu of %zu)",
                            last_fraction, found, total));
    const SeedAlignment& labeled = aligner->labeled();
    checks.Expect(labeled.entities.size() + labeled.relations.size() +
                          labeled.classes.size() ==
                      found,
                  "labeled set size differs from seed + oracle matches");
    if (!reports.empty()) {
      r.labels_used = static_cast<double>(reports.back().labels_used);
      checks.Expect(reports.back().labels_used ==
                        seed_size + oracle.queries(),
                    StrFormat("labels_used %zu, seed %zu + oracle %zu",
                              reports.back().labels_used, seed_size,
                              oracle.queries()));
    }
    r.quality = EvaluateAndCheck(aligner.get(), &checks, &r.layers);
    checks.Expect(reports.empty() ||
                      QualityOf(reports.back().eval) == r.quality,
                  "Evaluate after Run differs from the last checkpoint");
    tally->Record(checks);
    r.wall = run_seconds - strategy.check_seconds() +
             r.layers["core.evaluate_s"] + r.layers["core.extract_s"];
    r.pool_recall = Median(strategy.recalls());

    double fine_tune = 0, refresh = 0, pool_build = 0, rounds_reported = 0;
    for (const auto& rep : reports) {
      fine_tune += rep.telemetry.fine_tune_seconds;
      refresh += rep.telemetry.refresh_seconds;
      pool_build += rep.telemetry.pool_build_seconds;
      rounds_reported += static_cast<double>(rep.telemetry.rounds);
    }
    r.layers["core.fine_tune_s"] = fine_tune;
    r.layers["align.refresh_s"] = refresh;
    r.layers["active.pool_build_s"] = pool_build;
    r.layers["core.rounds"] = rounds_reported;
    r.layers["active.select_s"] = strategy.select_seconds();
    r.layers["active.pool_pairs"] = strategy.last_pool_entities();
    return r;
  }

  Quality Finish(Tally* /*tally*/, const std::vector<OpResult>& ops,
                 std::map<std::string, double>* /*layers*/) {
    return MedianQuality(ops);
  }

  // Layers that run inside ActiveAlignmentLoop::Run are read from its spans.
  void TraceLayers(const TraceSummary& summary,
                   std::map<std::string, double>* layers) const {
    (*layers)["core.train_s"] = summary.Total("core.train");
    (*layers)["index.build_s"] = summary.Total("active.pool_signatures");
    (*layers)["active.pool_s"] =
        (*layers)["active.pool_build_s"] - (*layers)["index.build_s"];
    (*layers)["infer.graph_s"] = summary.Total("core.round_graph");
    (*layers)["core.evaluate_s"] = summary.Total("core.evaluate");
  }

 private:
  uint64_t seed_ = 0;
  AlignmentTask task_;
};

// ---- batch-plan --------------------------------------------------------------

class BatchPlan {
 public:
  static constexpr size_t kMinOps = 1;
  static constexpr bool kHasRounds = true;
  static constexpr const char* kWallLayers[] = {
      "align.refresh_s", "index.build_s", "active.pool_s", "infer.graph_s",
      "active.select_s"};

  static DaakgConfig Config(uint64_t seed) {
    DaakgConfig cfg;
    cfg.kge_model = daakg::KgeModelKind::kTransE;
    cfg.kge.epochs = 10;
    cfg.align.align_epochs = 6;
    cfg.seed = seed;
    return cfg;
  }

  std::string Describe() const {
    return StrFormat("EN-FR scale %.2f (%zu x %zu entities), TransE warm start "
                     "(10 KGE epochs, 6 align epochs, %.0f%% seed), "
                     "DaakgStrategy (Algorithm 2), batch %zu, pool top-%zu, "
                     "%zu planned batches per session, labels_used to %zu matches",
                     kPlanScale, task_->kg1.num_entities(),
                     task_->kg2.num_entities(), 100 * kPlanSeedFraction,
                     kPlanBatch, kPlanPoolTopN, kPlanRounds,
                     kPlanTargetMatches);
  }

  void Setup(uint64_t seed, std::map<std::string, double>* layers) {
    seed_ = seed;
    aligner_.reset();
    task_.reset();
    double t0 = Now();
    task_ = std::make_unique<AlignmentTask>(
        MakeTask(BenchmarkDataset::kEnFr, kPlanScale, kDatasetSeed));
    (*layers)["kg.generate_s"] = Now() - t0;
    t0 = Now();
    aligner_ = MakeAligner(task_.get(), Config(seed));
    Rng rng(seed ^ 0x5EEDULL);
    const SeedAlignment seed_pairs =
        task_->SampleSeed(kPlanSeedFraction, &rng);
    aligner_->Train(seed_pairs);
    (*layers)["core.train_s"] = Now() - t0;
    seed_keys_ = PairKeys(seed_pairs.entities, seed_pairs.relations,
                          seed_pairs.classes);
    gold_ = GoldKeys(*task_);
  }

  const AlignmentTask& task() const { return *task_; }

  OpResult Run(Tally* tally, size_t /*op*/) {
    OpResult r;
    r.inputs = seed_;
    PoolConfig pool_cfg;
    pool_cfg.top_n = kPlanPoolTopN;
    DaakgStrategy strategy(/*use_partitioning=*/true);
    Rng select_rng(seed_ ^ 0xBA7CULL);
    std::unordered_set<uint64_t> labeled_keys = seed_keys_;
    std::vector<double> recalls;
    size_t queries = 0;
    size_t matches = 0;
    size_t labels_to_target = 0;
    for (size_t round = 0; round < kPlanRounds; ++round) {
      OpChecks checks(StrFormat("planned batch %zu", round + 1));
      const double t0 = Now();
      aligner_->RefreshCaches();
      const double t1 = Now();
      PoolGenerator generator(task_.get(), aligner_->joint(), pool_cfg);
      generator.index();
      const double t2 = Now();
      const std::vector<ElementPair> pool = generator.Generate();
      const double t3 = Now();
      AlignmentGraph graph(task_.get(), pool);
      InferenceEngine engine(&graph, aligner_->joint(),
                             aligner_->config().infer);
      engine.PrecomputeEdgeCosts();
      const double t4 = Now();
      std::vector<bool> labeled(pool.size());
      for (size_t i = 0; i < pool.size(); ++i) {
        labeled[i] = labeled_keys.count(PairKey(pool[i])) > 0;
      }
      const SelectionContext ctx{&engine, aligner_->joint(), &labeled};
      const std::vector<uint32_t> batch =
          strategy.SelectBatch(ctx, kPlanBatch, &select_rng);
      const double t5 = Now();
      r.waits.push_back(t5 - t0);
      r.wall += t5 - t0;
      r.layers["align.refresh_s"] += t1 - t0;
      r.layers["index.build_s"] += t2 - t1;
      r.layers["active.pool_s"] += t3 - t2;
      r.layers["infer.graph_s"] += t4 - t3;
      r.layers["active.select_s"] += t5 - t4;
      r.layers["active.pool_pairs"] = static_cast<double>(
          std::count_if(pool.begin(), pool.end(), [](const ElementPair& p) {
            return p.kind == ElementKind::kEntity;
          }));

      // Checks (outside the round wait).
      const std::string v = BatchViolation(batch, labeled, kPlanBatch);
      checks.Expect(v.empty(), v);
      if (first_pool_.empty()) first_pool_ = pool;
      checks.Expect(pool == first_pool_,
                    "pool differs although the model did not change");
      recalls.push_back(GoldRecall(pool, gold_, *task_));
      if (v.empty()) {
        const double chosen =
            daakg::EvaluateSelectionObjective(ctx, batch);
        const double random =
            daakg::EvaluateSelectionObjective(ctx, RandomBatch(labeled,
                                                                batch.size(),
                                                                round));
        checks.Expect(chosen >= random,
                      StrFormat("selection objective %.4f below a random "
                                "batch's %.4f",
                                chosen, random));
      }

      // The gold oracle labels the batch; the model is not retrained.
      // labels_used: the questions asked until kPlanTargetMatches of the
      // answers were matches.
      for (uint32_t q : batch) {
        ++queries;
        matches += gold_.count(PairKey(pool[q]));
        if (matches >= kPlanTargetMatches && labels_to_target == 0) {
          labels_to_target = queries;
        }
        labeled_keys.insert(PairKey(pool[q]));
      }
      if (round + 1 == kPlanRounds) {
        checks.Expect(labels_to_target > 0,
                      StrFormat("the session confirmed %zu matches, fewer "
                                "than %zu",
                                matches, kPlanTargetMatches));
      }
      tally->Record(checks);
    }
    r.layers["core.rounds"] = static_cast<double>(kPlanRounds);
    r.labels_used = static_cast<double>(labels_to_target);
    r.pool_recall = Median(recalls);
    return r;
  }

  // One more operation, after the timed phase because its checks copy model
  // data: the warm-started model the plans come from (Evaluate and
  // ExtractAlignment, checked; its quality is the run's), and the planning
  // pool of a fresh PoolGenerator against a brute-force top-N.
  Quality Finish(Tally* tally, const std::vector<OpResult>& /*ops*/,
                 std::map<std::string, double>* layers) {
    OpChecks checks("warm start");
    const Quality q = EvaluateAndCheck(aligner_.get(), &checks, layers);
    PoolConfig pool_cfg;
    pool_cfg.top_n = kPlanPoolTopN;
    const PoolGenerator generator(task_.get(), aligner_->joint(), pool_cfg);
    const std::vector<ElementPair> pool = generator.Generate();
    checks.Expect(pool == first_pool_,
                  "a fresh PoolGenerator gives another pool than planning");
    const std::string top_n = TopNViolation(generator, pool);
    checks.Expect(top_n.empty(), top_n);
    tally->Record(checks);
    return q;
  }

  void TraceLayers(const TraceSummary& /*summary*/,
                   std::map<std::string, double>* /*layers*/) const {}

 private:
  std::string TopNViolation(const PoolGenerator& generator,
                            const std::vector<ElementPair>& pool) const {
    Rng rng(seed_ ^ 0x70B7ULL);
    std::vector<uint32_t> rows;
    for (size_t i : rng.SampleWithoutReplacement(task_->kg1.num_entities(),
                                                 kPlanCheckedRows)) {
      rows.push_back(static_cast<uint32_t>(i));
    }
    return PoolTopNViolation(generator, *task_, pool, kPlanPoolTopN, rows);
  }

  std::vector<uint32_t> RandomBatch(const std::vector<bool>& labeled,
                                    size_t size, size_t round) const {
    std::vector<uint32_t> unlabeled;
    for (size_t i = 0; i < labeled.size(); ++i) {
      if (!labeled[i]) unlabeled.push_back(static_cast<uint32_t>(i));
    }
    Rng rng(seed_ ^ (0x4A11DULL + round));
    std::vector<uint32_t> out;
    for (size_t i : rng.SampleWithoutReplacement(unlabeled.size(), size)) {
      out.push_back(unlabeled[i]);
    }
    return out;
  }

  uint64_t seed_ = 0;
  std::unique_ptr<AlignmentTask> task_;
  std::unique_ptr<DaakgAligner> aligner_;
  std::unordered_set<uint64_t> seed_keys_;
  std::unordered_set<uint64_t> gold_;
  std::vector<ElementPair> first_pool_;
};

// ---- trace summary -----------------------------------------------------------

// Self time of a span: its duration minus the part of it that its child
// spans (on any thread) cover.
TraceSummary Summarize(const std::vector<daakg::obs::TraceEvent>& events) {
  TraceSummary s;
  s.events = events.size();
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const auto& e : events) {
    if (e.parent_id != 0) {
      children[e.parent_id].emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
    }
  }
  for (const auto& e : events) {
    const uint64_t begin = e.ts_ns;
    const uint64_t end = e.ts_ns + e.dur_ns;
    uint64_t covered = 0;
    auto it = children.find(e.id);
    if (it != children.end()) {
      auto spans = it->second;
      std::sort(spans.begin(), spans.end());
      uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : spans) {
        lo = std::max(lo, begin);
        hi = std::min(hi, end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    const std::string name = e.name;
    s.self[name] += static_cast<double>(e.dur_ns - covered) * 1e-9;
    s.total[name] += static_cast<double>(e.dur_ns) * 1e-9;
  }
  return s;
}

// ---- one run -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 17;
  double seconds = 20.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return args->workload == "seed-train" || args->workload == "active-loop" ||
         args->workload == "batch-plan";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Metrics in output order, with units.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       daakg::JsonEscape(entries_[i].name).c_str(),
                       StrFormat("%.17g", entries_[i].value).c_str(),
                       entries_[i].unit);
    }
    return out + "}";
  }
  void PrintTable() const {
    for (const auto& e : entries_) {
      std::printf("# %-34s %16.6f %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

template <typename Workload>
int RunWorkload(Workload& w, const Args& args) {
  Tally tally;
  // Set-up, several times; the last one stays for the timed phase.
  std::vector<double> setup_times;
  std::map<std::string, std::vector<double>> setup_layers;
  const double setup_begin = Now();
  while (static_cast<int>(setup_times.size()) < kMinSetups ||
         (Now() - setup_begin < kMinSetupSeconds &&
          static_cast<int>(setup_times.size()) < kMaxSetups)) {
    std::map<std::string, double> layers;
    const double t0 = Now();
    w.Setup(args.seed, &layers);
    setup_times.push_back(Now() - t0);
    for (const auto& [k, v] : layers) setup_layers[k].push_back(v);
  }

  // Timed phase: whole units until --seconds have passed.
  daakg::obs::GlobalMetrics().Reset();
  std::vector<OpResult> ops;
  const double phase_begin = Now();
  do {
    ops.push_back(w.Run(&tally, ops.size()));
    for (size_t i = 0; i + 1 < ops.size(); ++i) {
      if (ops[i].inputs == ops.back().inputs) {
        CheckRepeat(ops[i], ops.back(), &tally);
        break;
      }
    }
  } while (ops.size() < Workload::kMinOps ||
           Now() - phase_begin < args.seconds);
  FreezePeakRss();
  std::map<std::string, double> finish_layers;
  const Quality quality = w.Finish(&tally, ops, &finish_layers);

  std::vector<double> walls, waits;
  for (const OpResult& op : ops) {
    walls.push_back(op.wall);
    waits.insert(waits.end(), op.waits.begin(), op.waits.end());
  }

  const auto& task = w.task();
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"pool_threads\": %zu, \"cpu\": \"%s\", "
      "\"build_type\": \"%s\", \"simd\": \"%s\", \"index\": \"%s\", "
      "\"inputs\": \"%s\", \"entities\": [%zu, %zu], \"setups\": %zu, "
      "\"units\": %zu, \"rounds\": %zu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      daakg::GlobalThreadPool().num_threads(),
      daakg::JsonEscape(CpuModel()).c_str(), PERFBENCH_BUILD_TYPE,
      daakg::simd::ActiveOps().name,
      !Workload::kHasRounds                            ? "none built"
      : GaugeValue("daakg.index.auto_backend") == 0.0 ? "exact"
                                                      : "ivf",
      daakg::JsonEscape(w.Describe()).c_str(), task.kg1.num_entities(),
      task.kg2.num_entities(), setup_times.size(), ops.size(), waits.size());

  Metrics metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_times), "s");
    metrics.Add("wall_s", Median(walls), "s");
    if (Workload::kHasRounds) {
      metrics.Add("round_wait_p50_s", Median(waits), "s");
      if (waits.size() >= 40) {
        metrics.Add("round_wait_p75_s", Quantile(waits, 0.75), "s");
      }
    }
    metrics.Add("peak_rss_mb", g_peak_rss_mb, "MiB");
    if (Workload::kHasRounds) {
      metrics.Add("labels_used",
                  MedianOver(ops, [](const OpResult& o) {
                    return o.labels_used;
                  }),
                  "count");
    }
    metrics.Add("ent_h1", quality.ent_h1, "ratio");
    metrics.Add("ent_mrr", quality.ent_mrr, "ratio");
    metrics.Add("ent_f1", quality.ent_f1, "ratio");
    metrics.Add("rel_h1", quality.rel_h1, "ratio");
    metrics.Add("rel_f1", quality.rel_f1, "ratio");
    metrics.Add("cls_h1", quality.cls_h1, "ratio");
    metrics.Add("cls_f1", quality.cls_f1, "ratio");
    if (Workload::kHasRounds) {
      metrics.Add("pool_recall",
                  MedianOver(ops, [](const OpResult& o) {
                    return o.pool_recall;
                  }),
                  "ratio");
    }
  } else {
    // Operation 0 once more, under a trace session.
    daakg::obs::GlobalMetrics().Reset();
    auto& session = daakg::obs::TraceSession::Global();
    const daakg::Status started = session.Start(1 << 18);
    if (!started.ok()) {
      std::fprintf(stderr, "trace session: %s\n", started.ToString().c_str());
      return 2;
    }
    OpResult traced = w.Run(&tally, 0);
    CheckRepeat(ops.front(), traced, &tally);
    const std::vector<daakg::obs::TraceEvent> events = session.Stop();
    const TraceSummary summary = Summarize(events);
    std::map<std::string, double> layers = traced.layers;
    for (const auto& [k, v] : setup_layers) {
      if (layers.count(k) == 0) layers[k] = Median(v);
    }
    for (const auto& [k, v] : finish_layers) {
      if (layers.count(k) == 0) layers[k] = v;
    }
    w.TraceLayers(summary, &layers);
    const char* timed[] = {"kg.generate_s",    "core.train_s",
                           "core.fine_tune_s", "align.refresh_s",
                           "index.build_s",    "active.pool_s",
                           "infer.graph_s",    "active.select_s",
                           "core.evaluate_s",  "core.extract_s"};
    for (const char* name : timed) metrics.Add(name, layers[name], "s");
    metrics.Add("core.rounds", layers["core.rounds"], "count");
    metrics.Add("active.pool_pairs", layers["active.pool_pairs"], "count");
    metrics.Add("active.partition_groups",
                GaugeValue("daakg.active.partition_groups"), "count");
    metrics.Add("embedding.train_steps",
                CounterValue("daakg.embedding.kge_train_steps"), "count");
    metrics.Add("align.semi_pairs",
                CounterValue("daakg.align.semi_supervised_pairs"), "count");
    metrics.Add("index.scored_cells",
                CounterValue("daakg.index.scored_cells"), "count");
    metrics.Add("tensor.sim_cells", CounterValue("daakg.tensor.sim_cells"),
                "count");
    metrics.Add("common.pool_tasks",
                CounterValue("daakg.pool.tasks_executed"), "count");
    metrics.Add("obs.trace_overhead_s", traced.wall - ops.front().wall, "s");
    metrics.Add("obs.trace_dropped",
                static_cast<double>(session.dropped_last_session()), "count");
    for (const auto& [name, self] : summary.self) {
      metrics.Add("self." + name + "_s", self, "s");
    }

    // How much of the traced unit the layer times account for.
    double covered = 0.0;
    for (const char* name : Workload::kWallLayers) covered += layers[name];
    std::printf("# traced unit: wall %.3f s, untraced %.3f s, "
                "layer times cover %.1f%% of the traced wall, %zu spans\n",
                traced.wall, ops.front().wall, 100.0 * covered / traced.wall,
                summary.events);
  }
  metrics.PrintTable();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload seed-train|active-loop|batch-plan "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  if (args.workload == "seed-train") {
    SeedTrain w;
    return RunWorkload(w, args);
  }
  if (args.workload == "active-loop") {
    ActiveLoop w;
    return RunWorkload(w, args);
  }
  BatchPlan w;
  return RunWorkload(w, args);
}

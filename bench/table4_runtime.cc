// Reproduces Table 4 (run-time comparison) as a standalone summary. The
// full per-method timings also appear as the last column of the Table 3 and
// Table 5 benches; this binary reruns a representative subset so the
// run-time table can be regenerated in isolation.
//
// Expected shape: PARIS and BERTMap run in (milli)seconds because they need
// no embedding training; deep methods cost orders of magnitude more; within
// DAAKG, semi-supervision dominates the cost (w/o semi-supervision is the
// by-far fastest variant, as in the paper's Table 4).

#include <cstdio>

#include "active/oracle.h"
#include "active/strategies.h"
#include "baselines/bertmap_lite.h"
#include "baselines/embedding_baseline.h"
#include "baselines/paris.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/active_loop.h"

int main(int argc, char** argv) {
  using namespace daakg;
  using namespace daakg::bench;
  BenchArgs args = ParseBenchArgs(argc, argv);
  BenchEnv env = BenchEnv::FromEnv();
  std::printf("=== Table 4: run-time comparison (seconds), scale %.2f ===\n",
              env.scale);
  std::printf("%-26s %8s %8s %8s %8s\n", "Method", "D-W", "D-Y", "EN-DE",
              "EN-FR");

  struct Row {
    std::string name;
    double secs[4];
  };
  std::vector<Row> rows;
  auto row_of = [&rows](const std::string& name) -> Row& {
    for (auto& r : rows) {
      if (r.name == name) return r;
    }
    rows.push_back(Row{name, {0, 0, 0, 0}});
    return rows.back();
  };

  int col = 0;
  for (BenchmarkDataset dataset : AllDatasets()) {
    AlignmentTask task = MakeTask(dataset, env);
    Rng rng(env.seed ^ 0x5EEDULL);
    SeedAlignment seed = task.SampleSeed(env.seed_fraction, &rng);

    {
      Paris paris(&task);
      row_of("PARIS").secs[col] = paris.Run(seed).train_seconds;
    }
    {
      EmbeddingBaselineConfig cfg;
      cfg.name = "MTransE";
      cfg.daakg.kge_model = KgeModelKind::kTransE;
      cfg.daakg.kge.dim = 32;
      cfg.daakg.align.align_epochs = 60;
      cfg.daakg.align.semi_supervised = false;
      EmbeddingBaseline baseline(&task, cfg);
      row_of("MTransE").secs[col] = baseline.Run(seed).train_seconds;
    }
    {
      BertMapLite bertmap(&task);
      row_of("BERTMap").secs[col] = bertmap.Run(seed).train_seconds;
    }
    for (const char* model : {"transe", "rotate", "compgcn"}) {
      DaakgConfig cfg = DaakgBenchConfig(model, env);
      row_of(std::string("DAAKG (") + model + ")").secs[col] =
          RunDaakg(task, cfg, env, model).train_seconds;
      cfg.align.semi_supervised = false;
      row_of(std::string("  w/o semi (") + model + ")").secs[col] =
          RunDaakg(task, cfg, env, model).train_seconds;
    }
    ++col;
    std::fflush(stdout);
  }

  for (const Row& r : rows) {
    std::printf("%-26s %8.2f %8.2f %8.2f %8.2f\n", r.name.c_str(), r.secs[0],
                r.secs[1], r.secs[2], r.secs[3]);
  }

  // --- active-loop phase breakdown (the per-phase half of Table 4) --------
  // One small DAAKG active run on D-W; this is what populates the pool /
  // selection / oracle metrics in --metrics_json dumps.
  {
    std::printf("\n=== Active-loop phase breakdown (D-W, transe) ===\n");
    AlignmentTask task = MakeTask(BenchmarkDataset::kDW, env);
    DaakgConfig cfg = DaakgBenchConfig("transe", env);
    auto aligner = DaakgAligner::Create(&task, cfg);
    DAAKG_CHECK(aligner.ok());
    GoldOracle oracle(&task);
    DaakgStrategy strategy(/*use_partitioning=*/true);
    ActiveLoopConfig loop_cfg;
    loop_cfg.batch_size = 40;
    loop_cfg.initial_seed_fraction = env.seed_fraction;
    loop_cfg.report_fractions = {0.3};
    loop_cfg.pool.top_n = 10;
    loop_cfg.seed = env.seed;
    auto loop = ActiveAlignmentLoop::Create(&task, aligner->get(), &strategy,
                                            &oracle, loop_cfg);
    DAAKG_CHECK(loop.ok());
    std::printf("%8s %8s %8s %8s %8s %8s %8s\n", "frac", "labels", "matches",
                "refresh", "pool", "select", "finetune");
    for (const ActiveRoundReport& r : (*loop)->Run()) {
      std::printf("%8.2f %8zu %8zu %8.2f %8.2f %8.2f %8.2f\n", r.fraction,
                  r.labels_used, r.matches_found, r.telemetry.refresh_seconds,
                  r.telemetry.pool_build_seconds,
                  r.telemetry.selection_seconds,
                  r.telemetry.fine_tune_seconds);
    }
  }

  MaybeDumpMetrics(args);
  return 0;
}

#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/json_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace daakg {
namespace bench {

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  if (const char* s = std::getenv("DAAKG_BENCH_SCALE")) {
    env.scale = std::atof(s);
    DAAKG_CHECK_GT(env.scale, 0.0);
  }
  if (const char* s = std::getenv("DAAKG_BENCH_SEED")) {
    env.seed = static_cast<uint64_t>(std::atoll(s));
  }
  if (const char* s = std::getenv("DAAKG_BENCH_MODEL")) {
    env.model = s;
  }
  return env;
}

std::vector<BenchmarkDataset> AllDatasets() {
  return {BenchmarkDataset::kDW, BenchmarkDataset::kDY,
          BenchmarkDataset::kEnDe, BenchmarkDataset::kEnFr};
}

AlignmentTask MakeTask(BenchmarkDataset dataset, const BenchEnv& env) {
  auto task = MakeBenchmarkTask(dataset, env.scale, env.seed);
  DAAKG_CHECK(task.ok());
  return std::move(task).value();
}

DaakgConfig DaakgBenchConfig(const std::string& model, const BenchEnv& env) {
  DaakgConfig cfg;
  auto kind = ParseKgeModelKind(model);
  if (!kind.ok()) {
    LOG_FATAL << "DAAKG_BENCH_MODEL: " << kind.status();
  }
  cfg.kge_model = kind.value();
  cfg.seed = env.seed;
  if (model == "compgcn") {
    // The GNN encoder costs ~dim^2 per representation; trim dimension and
    // rounds so the 4-dataset sweeps stay CPU-affordable.
    cfg.kge.dim = 32;
    cfg.align.align_epochs = 60;
  }
  return cfg;
}

BaselineResult RunDaakg(const AlignmentTask& task, const DaakgConfig& config,
                        const BenchEnv& env, const std::string& row_name) {
  obs::TraceSpan span("bench.run_daakg", "bench", nullptr,
                      obs::TimingMode::kAlways);
  DaakgAligner aligner(&task, config);
  Rng rng(env.seed ^ 0x5EEDULL);
  SeedAlignment seed = task.SampleSeed(env.seed_fraction, &rng);
  aligner.Train(seed);
  BaselineResult result;
  result.name = row_name;
  result.eval = aligner.Evaluate();
  result.train_seconds = span.Finish();
  return result;
}

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  constexpr const char kMetricsFlag[] = "--metrics_json=";
  constexpr const char kTraceFlag[] = "--trace_json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kMetricsFlag, sizeof(kMetricsFlag) - 1) == 0) {
      args.metrics_json = argv[i] + sizeof(kMetricsFlag) - 1;
      continue;
    }
    if (std::strncmp(argv[i], kTraceFlag, sizeof(kTraceFlag) - 1) == 0) {
      args.trace_json = argv[i] + sizeof(kTraceFlag) - 1;
      continue;
    }
    LOG_FATAL << "unknown argument: " << argv[i] << " (usage: " << argv[0]
              << " [--metrics_json=<path>]"
              << " [--trace_json=<path>])";
  }
  if (!args.trace_json.empty()) {
    if (obs::TraceSession::Global().active()) {
      // DAAKG_TRACE already started a session (and owns the export path).
      LOG_WARNING << "--trace_json=" << args.trace_json
                  << " ignored: a trace session is already active"
                  << " (DAAKG_TRACE?)";
    } else {
      Status status =
          obs::TraceSession::Global().StartWithExportAtExit(args.trace_json);
      if (!status.ok()) {
        LOG_FATAL << "starting trace session for " << args.trace_json << ": "
                  << status;
      }
    }
  }
  return args;
}

void MaybeDumpMetrics(const BenchArgs& args) {
  if (args.metrics_json.empty()) return;
  Status status =
      obs::WriteMetricsJson(obs::GlobalMetrics(), args.metrics_json);
  if (!status.ok()) {
    LOG_FATAL << "writing " << args.metrics_json << ": " << status;
  }
  std::printf("metrics written to %s\n", args.metrics_json.c_str());
}

std::string ResultHeader() {
  return StrFormat(
      "%-22s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s | %8s\n"
      "%-22s | %20s | %20s | %20s |",
      "Method", "entH1", "entMRR", "entF1", "relH1", "relMRR", "relF1",
      "clsH1", "clsMRR", "clsF1", "time(s)", "", "---- entities ----",
      "---- relations ---", "----- classes ----");
}

std::string FormatResultRow(const BaselineResult& r) {
  return StrFormat(
      "%-22s | %6.3f %6.3f %6.3f | %6.3f %6.3f %6.3f | %6.3f %6.3f %6.3f | "
      "%8.1f",
      r.name.c_str(), r.eval.ent_rank.hits_at_1, r.eval.ent_rank.mrr,
      r.eval.ent_prf.f1, r.eval.rel_rank.hits_at_1, r.eval.rel_rank.mrr,
      r.eval.rel_prf.f1, r.eval.cls_rank.hits_at_1, r.eval.cls_rank.mrr,
      r.eval.cls_prf.f1, r.train_seconds);
}

}  // namespace bench
}  // namespace daakg

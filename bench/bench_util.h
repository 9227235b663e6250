#ifndef DAAKG_BENCH_BENCH_UTIL_H_
#define DAAKG_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "baselines/baseline_result.h"
#include "core/daakg.h"
#include "kg/synthetic.h"

namespace daakg {
namespace bench {

// Shared configuration of the reproduction benches. Environment knobs:
//   DAAKG_BENCH_SCALE   dataset scale factor (default 0.2 => 400 vs 280
//                       entities; the paper's datasets are 100k vs 70k)
//   DAAKG_BENCH_SEED    RNG seed (default 17)
//   DAAKG_BENCH_MODEL   default KGE model for DAAKG rows ("compgcn")
struct BenchEnv {
  double scale = 0.2;
  uint64_t seed = 17;
  double seed_fraction = 0.2;  // seed alignment = 20% of gold matches
  std::string model = "compgcn";

  static BenchEnv FromEnv();
};

// All four Table 2 dataset analogues.
std::vector<BenchmarkDataset> AllDatasets();

// Generates one dataset at the bench scale.
AlignmentTask MakeTask(BenchmarkDataset dataset, const BenchEnv& env);

// DAAKG configuration tuned per base model so the CPU bench stays
// affordable (CompGCN's GNN encoder is ~8x the per-epoch cost of TransE).
// Aborts on an unknown model name (benches are not library code).
DaakgConfig DaakgBenchConfig(const std::string& model, const BenchEnv& env);

// Command-line flags shared by the bench mains:
//   --metrics_json=<path>   dump the global metrics registry as JSON on
//                           MaybeDumpMetrics()
//   --trace_json=<path>     start a structured-trace session for the whole
//                           bench run and export Chrome trace-event JSON
//                           (Perfetto-loadable) at exit
struct BenchArgs {
  std::string metrics_json;
  std::string trace_json;
};

// Parses the flags above; unknown arguments abort with a usage message.
BenchArgs ParseBenchArgs(int argc, char** argv);

// Writes the global metrics registry to `args.metrics_json` when set.
void MaybeDumpMetrics(const BenchArgs& args);

// Trains DAAKG on `task` from a fresh `seed_fraction` seed and returns the
// evaluation plus wall-clock (a Table 3/4/5 row).
BaselineResult RunDaakg(const AlignmentTask& task, const DaakgConfig& config,
                        const BenchEnv& env, const std::string& row_name);

// Formatting helpers: one row of "name | entity H@1/MRR/F1 | relation ... |
// class ..." plus a header.
std::string ResultHeader();
std::string FormatResultRow(const BaselineResult& result);

}  // namespace bench
}  // namespace daakg

#endif  // DAAKG_BENCH_BENCH_UTIL_H_

// Reproduces Table 5 (ablation study of the embedding-based joint
// alignment) and the DAAKG-variant half of Table 4 (run-time): DAAKG with
// TransE / RotatE / CompGCN, each in four configurations — full, w/o class
// embeddings, w/o mean embeddings, w/o semi-supervision — on all datasets.
//
// Expected shape: class embeddings help class alignment; mean embeddings
// are the most important component for schema alignment; semi-supervision
// is the most expensive component and helps everything.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  const daakg::bench::BenchArgs args = daakg::bench::ParseBenchArgs(argc, argv);
  using namespace daakg;
  using namespace daakg::bench;
  BenchEnv env = BenchEnv::FromEnv();
  std::printf("=== Table 5 + Table 4 (DAAKG variants): ablations, "
              "%.0f%% seeds, scale %.2f ===\n",
              env.seed_fraction * 100, env.scale);

  struct Variant {
    const char* name;
    void (*apply)(DaakgConfig*);
  };
  const Variant variants[] = {
      {"DAAKG", [](DaakgConfig*) {}},
      {"w/o class embeddings",
       [](DaakgConfig* c) { c->use_class_embeddings = false; }},
      {"w/o mean embeddings",
       [](DaakgConfig* c) { c->align.use_mean_embeddings = false; }},
      {"w/o semi-supervision",
       [](DaakgConfig* c) { c->align.semi_supervised = false; }},
  };

  for (const char* model : {"transe", "rotate", "compgcn"}) {
    for (BenchmarkDataset dataset : AllDatasets()) {
      AlignmentTask task = MakeTask(dataset, env);
      std::printf("\n--- %s on %s ---\n%s\n", model, task.name.c_str(),
                  ResultHeader().c_str());
      for (const Variant& variant : variants) {
        DaakgConfig cfg = DaakgBenchConfig(model, env);
        variant.apply(&cfg);
        BaselineResult row = RunDaakg(
            task, cfg, env,
            std::string(model) + " " + variant.name);
        std::printf("%s\n", FormatResultRow(row).c_str());
        std::fflush(stdout);
      }
    }
  }
  daakg::bench::MaybeDumpMetrics(args);
  return 0;
}

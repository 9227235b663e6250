// Reproduces Table 3 (performance comparison of deep alignment methods)
// and the competitor columns of Table 4 (run-time): PARIS, the eight
// embedding baselines, BERTMap-lite and DAAKG on all four datasets, with a
// 20% seed alignment.
//
// Expected shape (not absolute numbers — see EXPERIMENTS.md):
//  * only DAAKG achieves strong relation AND class alignment;
//  * entity-only baselines collapse on schema alignment;
//  * literal baselines (AttrE/MultiKE) depend on the dataset's name policy
//    (good on D-Y, poor on D-W);
//  * BERTMap is good on monolingual class names (D-W/D-Y), poor on the
//    cross-lingual analogues;
//  * PARIS is training-free and much faster than the deep methods.

#include <cstdio>

#include "baselines/bertmap_lite.h"
#include "baselines/embedding_baseline.h"
#include "baselines/paris.h"
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  const daakg::bench::BenchArgs args = daakg::bench::ParseBenchArgs(argc, argv);
  using namespace daakg;
  using namespace daakg::bench;
  BenchEnv env = BenchEnv::FromEnv();
  std::printf("=== Table 3 + Table 4 (competitors): deep alignment, "
              "%.0f%% seeds, scale %.2f ===\n",
              env.seed_fraction * 100, env.scale);

  for (BenchmarkDataset dataset : AllDatasets()) {
    AlignmentTask task = MakeTask(dataset, env);
    Rng rng(env.seed ^ 0x5EEDULL);
    SeedAlignment seed = task.SampleSeed(env.seed_fraction, &rng);

    std::printf("\n--- dataset %s ---\n%s\n", task.name.c_str(),
                ResultHeader().c_str());

    {
      Paris paris(&task);
      std::printf("%s\n", FormatResultRow(paris.Run(seed)).c_str());
    }

    KgeConfig kge;
    kge.dim = 32;  // competitors embed classes as extra entities; keep cheap
    JointAlignConfig align;
    align.align_epochs = 50;
    for (const EmbeddingBaselineConfig& cfg :
         StandardBaselineRoster(kge, align)) {
      EmbeddingBaseline baseline(&task, cfg);
      std::printf("%s\n", FormatResultRow(baseline.Run(seed)).c_str());
      std::fflush(stdout);
    }

    {
      BertMapLite bertmap(&task);
      std::printf("%s\n", FormatResultRow(bertmap.Run(seed)).c_str());
    }

    {
      DaakgConfig cfg = DaakgBenchConfig(env.model, env);
      BaselineResult daakg =
          RunDaakg(task, cfg, env, "DAAKG (" + env.model + ")");
      std::printf("%s\n", FormatResultRow(daakg).c_str());
    }
    std::fflush(stdout);
  }
  daakg::bench::MaybeDumpMetrics(args);
  return 0;
}

// Ablation A2 (DESIGN.md): partial reduce vs full reduce on WordCount.
// The partial reduce aggregates each word on arrival (no barrier, no staged
// input); the full reduce stages everything and fires after upstream
// completion - quantifying §2's "computation can start early" claim.
#include "bench/harness.h"

#include "apps/wordcount.h"
#include "gen/generators.h"

using namespace hamr;
using namespace hamr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv, std::string("ablation_partialreduce - partial vs full reduce (A2)\n") + kUsage);
  BenchSetup setup = BenchSetup::from_flags(flags);
  setup.print_cluster_info("Ablation A2: WordCount partial reduce vs full reduce");

  gen::TextSpec spec;
  spec.total_bytes = static_cast<uint64_t>(16e6 * setup.scale);

  std::printf("\n%-22s %10s %12s %14s\n", "Variant", "Time(s)", "Bins",
              "SpillBytes");
  for (const bool full : {false, true}) {
    apps::BenchEnv env = setup.make_env();
    std::vector<std::string> shards;
    for (uint32_t i = 0; i < env.nodes(); ++i) {
      shards.push_back(gen::text_shard(spec, i, env.nodes()));
    }
    auto staged = apps::stage_input(env, "wc_pr", shards);
    auto info = apps::wordcount::run_hamr(env, staged, /*combine=*/false, full);
    const obs::MetricsSnapshot& m = info.engine_result.metrics;
    std::printf("%-22s %10.3f %12llu %14llu\n",
                full ? "full reduce" : "partial reduce", info.seconds,
                static_cast<unsigned long long>(m.counter("engine.bins")),
                static_cast<unsigned long long>(m.counter("engine.spill_bytes")));
    std::fflush(stdout);
  }
  return 0;
}

// Ablation A1 (DESIGN.md): in-memory computation vs forced spilling.
// Sweeps the engine's reduce-staging memory budget on a reduce-heavy
// WordCount (full reduce, no combiner) - as the budget shrinks, staged
// input spills through the throttled disk and the job slows, quantifying
// §3.1's in-memory claim.
#include "bench/harness.h"

#include "apps/wordcount.h"
#include "gen/generators.h"

using namespace hamr;
using namespace hamr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv, std::string("ablation_memory - in-memory vs spill (A1)\n") + kUsage);
  BenchSetup setup = BenchSetup::from_flags(flags);
  setup.print_cluster_info("Ablation A1: engine memory budget sweep (WordCount, full reduce)");

  // Each budget stages its input once and reports the best of 3 runs. The
  // first budget's first run is the process's first job, and one such cold
  // run read 4x slower than a warm one, flipping A1's time direction. Spill
  // bytes come from the fastest run.
  constexpr int kRepeats = 3;
  const double budgets_mb[] = {64, 2, 0.5, 0.125};
  std::printf("\n%-14s %10s %14s %12s\n", "Budget(MB)", "Time(s)", "SpillBytes",
              "Slowdown");
  double base_time = 0;
  for (const double budget : budgets_mb) {
    BenchSetup variant = setup;
    variant.engine_memory_mb = budget;
    apps::BenchEnv env = variant.make_env();
    gen::TextSpec spec;
    spec.total_bytes = static_cast<uint64_t>(16e6 * setup.scale);
    std::vector<std::string> shards;
    for (uint32_t i = 0; i < env.nodes(); ++i) {
      shards.push_back(gen::text_shard(spec, i, env.nodes()));
    }
    auto staged = apps::stage_input(env, "wc_mem", shards);
    double best_s = 0;
    uint64_t spill_bytes = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      auto info = apps::wordcount::run_hamr(env, staged, /*combine=*/false,
                                            /*use_full_reduce=*/true);
      if (best_s == 0 || info.seconds < best_s) {
        best_s = info.seconds;
        spill_bytes = info.engine_result.metrics.counter("engine.spill_bytes");
      }
    }
    if (base_time == 0) base_time = best_s;
    std::printf("%-14.2f %10.3f %14llu %11.2fx\n", budget, best_s,
                static_cast<unsigned long long>(spill_bytes),
                best_s / base_time);
    std::fflush(stdout);
  }
  return 0;
}

// Ablation A4 (DESIGN.md): locality awareness on K-Means (§3.3).
// Compares the index-passing DAG (ship (sim, node, offset), fetch the chosen
// line back locally) against a variant that ships the full movie vector
// through the shuffle like the baseline does.
#include "bench/harness.h"

#include "apps/kmeans.h"
#include "gen/generators.h"

using namespace hamr;
using namespace hamr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv, std::string("ablation_locality - K-Means index passing (A4)\n") + kUsage);
  BenchSetup setup = BenchSetup::from_flags(flags);
  // Index-passing saves NETWORK volume; default this ablation to a slower
  // interconnect so the saved bytes are visible at bench scale.
  if (!flags.has("net_mbps")) setup.net_mbps = 8;
  setup.print_cluster_info("Ablation A4: K-Means locality awareness");

  gen::MoviesSpec spec;
  spec.total_bytes = static_cast<uint64_t>(48e6 * setup.scale);

  std::printf("\n%-24s %10s %14s %12s\n", "Variant", "Time(s)", "BinBytes",
              "Records");
  for (const bool ship_full : {false, true}) {
    apps::BenchEnv env = setup.make_env();
    std::vector<std::string> shards;
    for (uint32_t i = 0; i < env.nodes(); ++i) {
      shards.push_back(gen::movie_vectors_shard(spec, i, env.nodes()));
    }
    auto staged = apps::stage_input(env, "km_loc", shards);
    const auto params = apps::kmeans::make_params(shards, 8);
    auto info = apps::kmeans::run_hamr(env, staged, params, ship_full);
    const obs::MetricsSnapshot& m = info.engine_result.metrics;
    std::printf("%-24s %10.3f %14llu %12llu\n",
                ship_full ? "ship full vectors" : "pass index (locality)",
                info.seconds,
                static_cast<unsigned long long>(m.counter("engine.bin_bytes")),
                static_cast<unsigned long long>(m.counter("engine.records")));
    std::fflush(stdout);
  }
  return 0;
}

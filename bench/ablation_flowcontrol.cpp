// Ablation A3 (DESIGN.md): flow control on/off under the HistogramRatings
// skew. With flow control, loaders throttle while the 5 hot partitions
// drain; without it, the engine buffers without bound (here: measure stall
// counts and the time difference). Paper §2/§5.2.
#include "bench/harness.h"

#include "apps/histograms.h"
#include "gen/generators.h"

using namespace hamr;
using namespace hamr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv, std::string("ablation_flowcontrol - flow control under skew (A3)\n") + kUsage);
  BenchSetup setup = BenchSetup::from_flags(flags);
  setup.print_cluster_info("Ablation A3: HistogramRatings with/without flow control");

  gen::MoviesSpec spec;
  spec.total_bytes = static_cast<uint64_t>(12e6 * setup.scale);

  std::printf("\n%-18s %10s %10s %14s\n", "Variant", "Time(s)", "Stalls",
              "StallTime(s)");
  for (const bool fc : {true, false}) {
    BenchSetup variant = setup;
    variant.flow_control = fc;
    apps::BenchEnv env = variant.make_env();
    std::vector<std::string> shards;
    for (uint32_t i = 0; i < env.nodes(); ++i) {
      shards.push_back(gen::movies_shard(spec, i, env.nodes()));
    }
    auto staged = apps::stage_input(env, "hr_fc", shards);
    auto info = apps::histograms::run_hamr(env, staged,
                                           apps::histograms::Kind::kRatings);
    const obs::MetricsSnapshot& m = info.engine_result.metrics;
    std::printf("%-18s %10.3f %10llu %14.3f\n",
                fc ? "flow control ON" : "flow control OFF", info.seconds,
                static_cast<unsigned long long>(m.counter("engine.stalls")),
                static_cast<double>(m.counter("engine.stall_ns")) * 1e-9);
    std::fflush(stdout);
  }
  return 0;
}

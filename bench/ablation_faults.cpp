// Ablation A6: recovery overhead vs injected fault rate.
//
// WordCount runs on the full cost-model cluster under a sweep of chaos
// plans. The first row is the legacy path (no injector, no seq/ack channel);
// the second is a zero-fault plan, isolating the pure bookkeeping cost of
// the reliable shuffle channel (frames, acks, unacked tracking) - the
// interesting number, expected well under 5%. Later rows dial up message
// faults (drop/duplicate/delay split as FaultPlan::chaos) plus task crashes
// and report how retransmissions and task retries grow with the fault rate.
#include "bench/harness.h"

#include "apps/wordcount.h"
#include "gen/generators.h"

using namespace hamr;
using namespace hamr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              std::string("ablation_faults - recovery overhead vs fault rate (A6)\n") +
                  kUsage + "  --repeats=N          best-of-N per variant (default 3)\n");
  BenchSetup setup = BenchSetup::from_flags(flags);
  setup.print_cluster_info("Ablation A6: WordCount under injected faults");
  init_observability(setup);

  gen::TextSpec spec;
  spec.total_bytes = static_cast<uint64_t>(8e6 * setup.scale);

  struct Variant {
    const char* name;
    bool injector;       // false = legacy path, no reliable channel
    double msg_rate;     // spread over drop/duplicate/delay
    double crash_rate;   // per task execution
  };
  const Variant variants[] = {
      {"no injector", false, 0, 0},
      {"zero-fault plan", true, 0, 0},
      {"1% msg faults", true, 0.01, 0.002},
      {"5% msg faults", true, 0.05, 0.01},
      {"10% msg faults", true, 0.10, 0.02},
  };

  // Wall-time of a single run is dominated by scheduler noise (the simulated
  // cluster's threads all share the host's cores), so each variant reports
  // best-of-N; the fault/retry counters come from the fastest run.
  const int repeats = static_cast<int>(flags.get_double("repeats", 3));

  std::printf("\n%-18s %9s %10s %9s %9s %9s %9s %10s\n", "Variant", "Time(s)",
              "Overhead", "Faults", "Resends", "DupFrm", "Retries", "SpillRtry");
  double baseline_s = 0;
  for (const Variant& v : variants) {
    double best_s = 0;
    engine::JobResult best{};
    for (int rep = 0; rep < repeats; ++rep) {
      fault::FaultInjector injector(
          fault::FaultPlan::chaos(/*seed=*/1, v.msg_rate, v.crash_rate));
      BenchSetup variant = setup;
      variant.fault_injector = v.injector ? &injector : nullptr;
      apps::BenchEnv env = variant.make_env();

      std::vector<std::string> shards;
      for (uint32_t i = 0; i < env.nodes(); ++i) {
        shards.push_back(gen::text_shard(spec, i, env.nodes()));
      }
      auto staged = apps::stage_input(env, "wc_faults", shards);
      auto info = apps::wordcount::run_hamr(env, staged);
      harvest_metrics(env);
      if (best_s == 0 || info.seconds < best_s) {
        best_s = info.seconds;
        best = info.engine_result;
      }
    }

    if (baseline_s == 0) baseline_s = best_s;
    const double overhead = (best_s - baseline_s) / baseline_s * 100.0;
    const obs::MetricsSnapshot& m = best.metrics;
    std::printf("%-18s %9.3f %9.1f%% %9llu %9llu %9llu %9llu %10llu\n", v.name,
                best_s, overhead,
                static_cast<unsigned long long>(best.faults_injected),
                static_cast<unsigned long long>(m.counter("engine.resends")),
                static_cast<unsigned long long>(m.counter("engine.dup_frames")),
                static_cast<unsigned long long>(m.counter("engine.task_retries")),
                static_cast<unsigned long long>(m.counter("engine.spill_retries")));
    std::fflush(stdout);
  }
  finish_observability(setup);
  return 0;
}

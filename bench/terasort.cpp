// TeraSort-class distributed sort bench: sampling pass, range-partitioned
// shuffle, per-node spill/merge (src/sort/). Reports GB/s vs node count on
// the cost-model-free cluster, so the number measures the real code paths:
// batch record decode, zero-copy shuffle frames, arena staging, loser-tree
// merge.
//
// Every run is validated byte-for-byte against a single-threaded std::sort
// of the same dataset - the bench exits non-zero on any mismatch, including
// under --chaos (message drops + task crashes over the reliable channel).
//
//   terasort --nodes=8 --threads=4 --records=200000 --chaos
//            --metrics_json=bench_terasort.json --trace=terasort_trace.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "fault/fault.h"
#include "sort/sort.h"

using namespace hamr;
using namespace hamr::bench;

namespace {

// Classic TeraSort record shape: 10-byte binary key + 90-byte payload,
// generated from a seeded xorshift so every run sorts the same dataset.
std::vector<std::string> make_dataset(size_t records, uint64_t seed) {
  uint64_t state = seed ? seed : 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  };
  std::vector<std::string> data;
  data.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    std::string rec;
    rec.reserve(100);
    while (rec.size() < 100) {
      const uint64_t r = next();
      for (int b = 0; b < 8 && rec.size() < 100; ++b) {
        rec.push_back(static_cast<char>(r >> (8 * b)));
      }
    }
    data.push_back(std::move(rec));
  }
  return data;
}

struct RunResult {
  double seconds = 0;
  bool ok = false;
  uint64_t spill_runs = 0;
};

RunResult run_once(uint32_t nodes, uint32_t threads,
                   fault::FaultInjector* injector,
                   const std::vector<std::string>& data,
                   const std::vector<std::string>& expected,
                   uint64_t memory_budget) {
  engine::EngineConfig cfg = engine::EngineConfig::fast();
  cfg.fault_injector = injector;
  apps::BenchEnv env = apps::BenchEnv::make(
      cluster::ClusterConfig::fast(nodes, threads), cfg);
  if (injector != nullptr) env.cluster->set_fault_injector(injector);

  // Round-robin shard the dataset, frame each shard, stage node-local files.
  std::vector<std::vector<std::string>> shards(nodes);
  for (size_t i = 0; i < data.size(); ++i) {
    shards[i % nodes].push_back(data[i]);
  }
  sort::SortSpec spec;
  spec.memory_budget_bytes = memory_budget;
  std::vector<std::string> framed;
  framed.reserve(nodes);
  for (const auto& shard : shards) {
    framed.push_back(sort::frame_records(shard));
  }
  sort::stage_sort_input(*env.cluster, spec, framed);

  const auto t0 = std::chrono::steady_clock::now();
  sort::SortStats stats = sort::run_distributed_sort(*env.engine, spec);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.spill_runs = env.cluster->total_counter("sort.spill_runs");
  const std::vector<std::string> sorted = sort::collect_sorted(*env.cluster, spec);
  r.ok = sorted == expected;
  if (!r.ok) {
    std::fprintf(stderr,
                 "MISMATCH at %u nodes: %zu records out, %zu expected\n", nodes,
                 sorted.size(), expected.size());
    std::fprintf(stderr, "  is_sorted=%d\n",
                 std::is_sorted(sorted.begin(), sorted.end()) ? 1 : 0);
    for (size_t i = 0; i < sorted.size() && i < expected.size(); ++i) {
      if (sorted[i] != expected[i]) {
        std::fprintf(stderr, "  first diff at record %zu\n", i);
        break;
      }
    }
  }
  (void)stats;
  harvest_metrics(env);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(
      argc, argv,
      std::string("terasort - distributed sort throughput vs node count\n") +
          kUsage +
          "  --records=N          dataset size in 100-byte records (default 200000)\n"
          "  --seed=N             dataset seed (default 42)\n"
          "  --budget_kb=N        per-node sort staging budget (default 1024)\n"
          "  --chaos              add a 5%-drop / 2%-crash chaos run at max nodes\n");
  BenchSetup setup = BenchSetup::from_flags(flags);
  const size_t records = static_cast<size_t>(
      flags.get_double("records", 200000) * setup.scale);
  const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  const uint64_t budget =
      static_cast<uint64_t>(flags.get_int("budget_kb", 1024)) * 1024;
  const bool chaos = flags.get_bool("chaos", false);
  init_observability(setup);

  const std::vector<std::string> data = make_dataset(records, seed);
  uint64_t total_bytes = 0;
  for (const std::string& r : data) total_bytes += r.size();
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());

  std::printf("TeraSort: %zu records, %.1f MB, budget %llu KB\n\n", records,
              total_bytes / 1e6, static_cast<unsigned long long>(budget / 1024));
  std::printf("%7s %9s %9s %10s %8s\n", "Nodes", "Time(s)", "GB/s",
              "SpillRuns", "Check");

  bool all_ok = true;
  for (uint32_t n = 1; n <= setup.nodes; n *= 2) {
    const RunResult r = run_once(n, setup.threads, /*injector=*/nullptr, data,
                                 expected, budget);
    all_ok = all_ok && r.ok;
    std::printf("%7u %9.3f %9.3f %10llu %8s\n", n, r.seconds,
                total_bytes / 1e9 / r.seconds,
                static_cast<unsigned long long>(r.spill_runs),
                r.ok ? "ok" : "MISMATCH");
    std::fflush(stdout);
  }

  if (chaos) {
    fault::FaultPlan plan;
    plan.default_link.drop = 0.05;
    plan.task_crash_rate = 0.02;
    plan.seed = 1213;
    plan.resend_after = millis(20);  // recover dropped frames quickly
    fault::FaultInjector injector(plan);
    const RunResult r = run_once(setup.nodes, setup.threads, &injector, data,
                                 expected, budget);
    all_ok = all_ok && r.ok;
    std::printf("%6uc %9.3f %9.3f %10llu %8s  (5%% drop, 2%% crash)\n",
                setup.nodes, r.seconds, total_bytes / 1e9 / r.seconds,
                static_cast<unsigned long long>(r.spill_runs),
                r.ok ? "ok" : "MISMATCH");
  }

  finish_observability(setup);
  if (!all_ok) {
    std::fprintf(stderr, "terasort: output mismatch vs std::sort reference\n");
  }
  return all_ok ? 0 : 1;
}

// Quickstart: word count on HAMR in ~60 lines of application code.
//
// Demonstrates the essentials of the flowlet API:
//   1. bring up a (simulated) cluster and deploy an Engine on it;
//   2. define flowlets: a built-in TextLoader, a Map, and a PartialReduce;
//   3. wire them into an ir::Graph, attach the input splits to the source,
//      and compile and run it (apps::run_ir: ir::lower(ir::optimize(g)));
//   4. read the results from the nodes' local output files.
//
// Run:  ./examples/quickstart [--nodes=4] [--bytes=2000000]
#include <cstdio>

#include "apps/common.h"
#include "apps/counting.h"
#include "common/flags.h"
#include "gen/generators.h"

using namespace hamr;

namespace {

// Splits each input line into words and emits (word, "1").
class Tokenize : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    for (std::string_view word : apps::tokenize(record.value)) {
      ctx.emit(0, word, "1");
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "quickstart - word count on HAMR\n"
              "  --nodes=N   cluster size (default 4)\n"
              "  --bytes=N   input size (default 2 MB)");

  // 1. A small simulated cluster with realistic disk/NIC cost models, plus
  //    the engine deployed on it.
  cluster::ClusterConfig cluster_cfg;
  cluster_cfg.num_nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));
  apps::BenchEnv env = apps::BenchEnv::make(cluster_cfg);

  // 2. Generate some Zipfian text and stage it onto each node's local disk.
  gen::TextSpec spec;
  spec.total_bytes = static_cast<uint64_t>(flags.get_int("bytes", 2'000'000));
  std::vector<std::string> shards;
  for (uint32_t i = 0; i < env.nodes(); ++i) {
    shards.push_back(gen::text_shard(spec, i, env.nodes()));
  }
  const apps::StagedInput input = apps::stage_input(env, "quickstart", shards);

  // 3. Build the DAG: loader -> tokenize -> count (partial reduce).
  //    The loader edge is local (data is processed where its disk lives);
  //    the counting edge partitions by word across the cluster.
  ir::Graph graph;
  const auto loader = apps::add_text_source(graph, "TextLoader", input);
  const auto tokenize =
      graph.add_map("Tokenize", [] { return std::make_unique<Tokenize>(); });
  const auto count = graph.add_combine(
      "Count", [] { return std::make_unique<apps::CountSink>("out/quickstart/"); });
  graph.node(count).effect = true;  // writes out/quickstart/
  graph.connect(loader, tokenize, engine::local_edge());
  graph.connect(tokenize, count);

  // 4. Run and inspect.
  const engine::JobResult result = apps::run_ir(env, std::move(graph));
  const obs::MetricsSnapshot& m = result.metrics;
  std::printf("processed %.1f MB in %.3f s (%llu records, %llu bins, "
              "%llu flow-control stalls)\n",
              static_cast<double>(input.total_bytes) / 1e6, result.wall_seconds,
              static_cast<unsigned long long>(m.counter("engine.records")),
              static_cast<unsigned long long>(m.counter("engine.bins")),
              static_cast<unsigned long long>(m.counter("engine.stalls")));

  const auto counts = apps::to_counts(apps::collect_local_kv(*env.cluster, "out/quickstart/"));
  std::printf("distinct words: %zu\n", counts.size());
  int shown = 0;
  for (const auto& [word, count_value] : counts) {
    if (shown++ == 5) break;
    std::printf("  %-12s %llu\n", word.c_str(),
                static_cast<unsigned long long>(count_value));
  }
  return 0;
}

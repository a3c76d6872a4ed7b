// Lambda-architecture example (paper §1: "HAMR fully supports Lambda big
// data architecture by using the same programming and processing model in
// only one computing engine").
//
// Batch layer : a batch job counts words over the historical files on disk.
// Speed layer : a streaming job counts words over a live source.
// Serving     : the driver merges both views into a combined count table.
//
// The two layers are ONE job builder (word_count) on the SAME engine, each
// compiled through ir::lower(ir::optimize(...)) - only the source passed in
// differs (TextLoader over the history files vs a RateLimitedSource).
//
// Run:  ./examples/lambda_pipeline [--seconds=2]
#include <cstdio>

#include "apps/common.h"
#include "apps/counting.h"
#include "common/flags.h"
#include "common/random.h"
#include "engine/loaders.h"
#include "gen/generators.h"
#include "ir/lower.h"
#include "ir/passes.h"

using namespace hamr;

namespace {

class Tokenize : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    for (std::string_view word : apps::tokenize(record.value)) {
      ctx.emit(0, word, "1");
    }
  }
};

// Live source emitting the same vocabulary as the historical data.
class LiveSource : public engine::RateLimitedSource {
 public:
  LiveSource() : RateLimitedSource(/*records_per_sec=*/5000), zipf_(1000, 0.99) {}

  void make_record(const engine::InputSplit& split, uint64_t index,
                   std::string* key, std::string* value) override {
    Rng rng(split.preferred_node * 31 + index);
    *key = std::to_string(index);
    *value = "w" + std::to_string(zipf_.sample(rng));
  }

 private:
  Zipf zipf_;
};

// The job both layers run: source -> Tokenize -> Count, with the counts
// written under `out_prefix`.
ir::Graph word_count(std::string source_name, engine::FlowletFactory source,
                     std::vector<engine::InputSplit> splits,
                     const std::string& out_prefix) {
  ir::Graph graph;
  const auto loader = graph.add_source(std::move(source_name), std::move(source));
  graph.node(loader).splits = std::move(splits);
  const auto tokenize =
      graph.add_map("Tokenize", [] { return std::make_unique<Tokenize>(); });
  const auto count = graph.add_combine("Count", [out_prefix] {
    return std::make_unique<apps::CountSink>(out_prefix);
  });
  graph.node(count).effect = true;  // writes the layer's count files
  graph.connect(loader, tokenize, engine::local_edge());
  graph.connect(tokenize, count);
  return graph;
}

std::map<std::string, uint64_t> layer_counts(apps::BenchEnv& env,
                                             const std::string& prefix) {
  return apps::to_counts(apps::collect_local_kv(*env.cluster, prefix));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "lambda_pipeline - batch + streaming layers on one engine\n"
              "  --nodes=N    cluster size (default 4)\n"
              "  --seconds=F  speed-layer duration (default 2)");

  cluster::ClusterConfig cluster_cfg;
  cluster_cfg.num_nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));
  apps::BenchEnv env = apps::BenchEnv::make(cluster_cfg);

  // ---- Batch layer: historical files on the node-local disks. ----
  gen::TextSpec spec;
  spec.total_bytes = 2'000'000;
  spec.vocab = 1000;
  std::vector<std::string> shards;
  for (uint32_t i = 0; i < env.nodes(); ++i) {
    shards.push_back(gen::text_shard(spec, i, env.nodes()));
  }
  const apps::StagedInput history = apps::stage_input(env, "history", shards);

  const auto batch_result = apps::run_ir(
      env, word_count("TextLoader",
                      [] { return std::make_unique<engine::TextLoader>(); },
                      history.splits, "out/lambda_batch/"));
  std::printf("batch layer: %.1f MB of history in %.3f s\n",
              static_cast<double>(history.total_bytes) / 1e6,
              batch_result.wall_seconds);

  // ---- Speed layer: same job, streaming source, same engine. ----
  std::vector<engine::InputSplit> live_splits(env.nodes());
  for (uint32_t n = 0; n < env.nodes(); ++n) live_splits[n].preferred_node = n;
  const ir::Lowered speed = ir::lower(ir::optimize(
      word_count("LiveSource", [] { return std::make_unique<LiveSource>(); },
                 std::move(live_splits), "out/lambda_speed/")));
  const double seconds = flags.get_double("seconds", 2);
  const auto speed_result =
      env.engine->run_streaming(speed.graph, speed.inputs, from_seconds(seconds));
  std::printf("speed layer: streamed %.1f s in %.3f s wall\n", seconds,
              speed_result.wall_seconds);

  // ---- Serving layer: merge both views. ----
  const auto batch_view = layer_counts(env, "out/lambda_batch/");
  const auto speed_view = layer_counts(env, "out/lambda_speed/");
  std::map<std::string, uint64_t> merged = batch_view;
  for (const auto& [word, count] : speed_view) merged[word] += count;

  uint64_t batch_total = 0, speed_total = 0;
  for (const auto& [w, c] : batch_view) batch_total += c;
  for (const auto& [w, c] : speed_view) speed_total += c;
  std::printf("serving layer: %zu words | batch occurrences %llu | live "
              "occurrences %llu | merged view ready\n",
              merged.size(), static_cast<unsigned long long>(batch_total),
              static_cast<unsigned long long>(speed_total));
  std::printf("hottest word: %s\n",
              std::max_element(merged.begin(), merged.end(),
                               [](const auto& a, const auto& b) {
                                 return a.second < b.second;
                               })
                  ->first.c_str());
  return 0;
}

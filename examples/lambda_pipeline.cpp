// Lambda-architecture example (paper §1: "HAMR fully supports Lambda big
// data architecture by using the same programming and processing model in
// only one computing engine").
//
// Batch layer : a batch job counts words over the historical files on disk.
// Speed layer : a stream counts words from a paced live source.
// Serving     : the driver merges both views into a combined count table.
//
// Both layers are ir::Graphs lowered through ir::lower(ir::optimize(...))
// and run on the SAME engine. The batch job is TextLoader -> Tokenize ->
// Count; the speed layer is the stream layer's pipeline (a paced
// GeneratorSource on every node drawing from the history's Zipf vocabulary,
// one event-time window longer than the run, the default window file sink),
// lowered by StreamService::make_work and run with Engine::run_streaming.
//
// Run:  ./examples/lambda_pipeline [--seconds=2]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "apps/common.h"
#include "apps/counting.h"
#include "common/flags.h"
#include "common/random.h"
#include "engine/loaders.h"
#include "gen/generators.h"
#include "stream/stream_service.h"

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

// The batch job: TextLoader -> Tokenize -> Count, with the counts written
// under `out_prefix`.
ir::Graph word_count(const apps::StagedInput& input,
                     const std::string& out_prefix) {
  ir::Graph graph;
  const auto loader = graph.add_source(
      "TextLoader", [] { return std::make_unique<engine::TextLoader>(); });
  graph.node(loader).splits = input.splits;
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

// Per-word totals of the window sink's "window|word \t count" lines.
std::map<std::string, uint64_t> window_counts(const std::string& sink_output) {
  std::map<std::string, uint64_t> counts;
  size_t pos = 0;
  while (pos < sink_output.size()) {
    size_t nl = sink_output.find('\n', pos);
    if (nl == std::string::npos) nl = sink_output.size();
    const std::string_view line(sink_output.data() + pos, nl - pos);
    pos = nl + 1;
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    counts[std::string(stream::window_key_user(line.substr(0, tab)))] +=
        apps::parse_count(line.substr(tab + 1));
  }
  return counts;
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

  const auto batch_result =
      apps::run_ir(env, word_count(history, "out/lambda_batch/"));
  std::printf("batch layer: %.1f MB of history in %.3f s\n",
              static_cast<double>(history.total_bytes) / 1e6,
              batch_result.wall_seconds);

  // ---- Speed layer: live words from the same vocabulary, same engine. ----
  // Each node's source emits one word per event at kLiveRate events/s, and
  // event time tracks wall time (one event every 1e6 / kLiveRate us), so a
  // single tumbling window a second longer than the run holds every live
  // event and closes when the stream drains.
  constexpr double kLiveRate = 5000;
  const double seconds = flags.get_double("seconds", 2);
  const auto zipf = std::make_shared<Zipf>(spec.vocab, spec.theta);
  stream::GeneratorConfig live;  // unbounded: runs until the stream stops
  live.events_per_sec = kLiveRate;
  live.period_us = std::llround(1e6 / kLiveRate);
  live.make = [zipf](const engine::InputSplit& split, uint64_t index,
                     std::string* key, std::string* value) {
    Rng rng(split.preferred_node * 31 + index);  // a distinct stream per node
    *key = "w" + std::to_string(zipf->sample(rng));
    *value = "1";
  };
  stream::StreamPipeline speed;
  speed.source = [live] { return std::make_unique<stream::GeneratorSource>(live); };
  speed.source_options.window.size_us = std::llround((seconds + 1) * 1e6);
  speed.fold = [](std::string_view, std::string_view value, std::string& acc) {
    acc = std::to_string(apps::parse_count(acc) + apps::parse_count(value));
  };
  speed.output_dir = "out/lambda_speed";
  const service::JobWork speed_work =
      stream::StreamService::make_work(std::move(speed), env.nodes(), nullptr);
  const auto speed_result = env.engine->run_streaming(
      speed_work.graph, speed_work.inputs, from_seconds(seconds));
  std::printf("speed layer: streamed %.1f s in %.3f s wall\n", seconds,
              speed_result.wall_seconds);

  // ---- Serving layer: merge both views. ----
  const auto batch_view =
      apps::to_counts(apps::collect_local_kv(*env.cluster, "out/lambda_batch/"));
  const auto speed_view = window_counts(speed_work.collect(*env.engine));
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

// Streaming example: trending words over a live event stream - the paper's
// "streaming processing model subsystem" (Fig. 1) and Lambda-architecture
// claim (one engine, same programming model, batch AND streaming).
//
// A paced GeneratorSource on every node emits Zipfian "topic" words through
// the StreamService: each word lands in a tumbling event-time window, a
// windowed partial reduce counts (window, word) pairs and closes a window
// once the watermark passes its end, and a trending sink keeps every word's
// peak single-window count. Events are spaced 1e6 / rate microseconds apart
// in event time, so event time tracks ingest time and windows close while
// the stream runs. After the configured duration the service drains the
// stream: open windows flush and the job completes like a batch job.
//
// Run:  ./examples/streaming_trending [--seconds=3] [--window_ms=500]
//       [--rate=20000] [--nodes=4]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "apps/counting.h"
#include "cluster/cluster.h"
#include "common/flags.h"
#include "common/random.h"
#include "service/job_service.h"
#include "stream/source.h"
#include "stream/stream_service.h"
#include "stream/window.h"

using namespace hamr;

namespace {

// Keeps each word's peak single-window count on this node and writes them
// as "word \t peak" lines to the file the stream service collects.
class TrendingSink : public engine::MapFlowlet {
 public:
  explicit TrendingSink(std::string dir) : dir_(std::move(dir)) {}

  void process(const engine::KvPair& record, engine::Context&) override {
    const uint64_t count = apps::parse_count(record.value);
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& best = peak_[std::string(stream::window_key_user(record.key))];
    best = std::max(best, count);
  }

  void finish(engine::Context& ctx) override {
    std::string out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [word, peak] : peak_) {
        out += word + "\t" + std::to_string(peak) + "\n";
      }
    }
    ctx.local_store().write_file(
        stream::WindowFileSink::node_path(dir_, ctx.node()), std::move(out));
  }

 private:
  std::string dir_;
  std::mutex mu_;
  std::map<std::string, uint64_t> peak_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "streaming_trending - event-time trending words on HAMR streaming\n"
              "  --nodes=N      cluster size (default 4)\n"
              "  --seconds=F    stream duration before drain (default 3)\n"
              "  --window_ms=N  tumbling event-time window size (default 500)\n"
              "  --rate=N       words/second per source (default 20000)");

  const uint32_t nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));
  cluster::Cluster cluster(cluster::ClusterConfig::fast(nodes));
  service::ServiceConfig cfg;
  cfg.lanes = 1;
  cfg.engine = engine::EngineConfig::fast();
  service::JobService jobs(cluster, cfg);
  stream::StreamService streams(jobs);

  const double rate = flags.get_double("rate", 20000);
  const auto zipf = std::make_shared<Zipf>(5000, 0.99);
  stream::GeneratorConfig gen;
  gen.total_events = 0;  // unbounded: runs until drained
  gen.period_us = std::max<int64_t>(1, std::llround(1e6 / rate));
  gen.events_per_sec = rate;
  gen.make = [zipf](const engine::InputSplit& split, uint64_t index,
                    std::string* key, std::string* value) {
    Rng rng(split.preferred_node * 31 + index);  // a distinct stream per node
    *key = "topic" + std::to_string(zipf->sample(rng));
    *value = "1";
  };

  const auto window_ms = flags.get_int("window_ms", 500);
  const std::string dir = "out/trending";
  stream::StreamPipeline p;
  p.source = [gen] { return std::make_unique<stream::GeneratorSource>(gen); };
  p.source_options.window.size_us = window_ms * 1000;
  p.source_options.punctuate_every = 1024;
  p.fold = [](std::string_view, std::string_view value, std::string& acc) {
    acc = std::to_string(apps::parse_count(acc) + apps::parse_count(value));
  };
  p.output_dir = dir;
  p.sink = [dir] { return std::make_unique<TrendingSink>(dir); };

  const double seconds = flags.get_double("seconds", 3);
  std::printf("streaming for %.1f s with %lld ms event-time windows...\n",
              seconds, static_cast<long long>(window_ms));
  stream::StreamSpec spec;
  spec.job.tenant = "trending";
  spec.duration = from_seconds(seconds);
  auto ticket = streams.start(std::move(p), spec);
  const service::JobStatus st =
      ticket->wait(from_seconds(seconds) + std::chrono::seconds(60));
  const auto prog = ticket->poll();
  const engine::JobResult result = ticket->result();
  std::printf("stream %s in %.3f s total; %llu events, %llu windows closed, "
              "%llu records through the DAG\n",
              service::to_string(st), result.wall_seconds,
              static_cast<unsigned long long>(prog.events_ingested),
              static_cast<unsigned long long>(prog.windows_emitted),
              static_cast<unsigned long long>(
                  result.metrics.counter("engine.records")));

  // Each (window, word) pair closes on one node, so a word's peak is the
  // maximum over every node's line for it.
  std::map<std::string, uint64_t> peak;
  const std::string out = ticket->payload();
  size_t pos = 0;
  while (pos < out.size()) {
    const size_t nl = out.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string_view line(out.data() + pos, nl - pos);
    pos = nl + 1;
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    uint64_t& best = peak[std::string(line.substr(0, tab))];
    best = std::max(best, apps::parse_count(line.substr(tab + 1)));
  }

  std::printf("trending words (peak single-window count):\n");
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [word, count] : peak) ranked.emplace_back(count, word);
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < std::min<size_t>(8, ranked.size()); ++i) {
    std::printf("  %-12s %llu\n", ranked[i].second.c_str(),
                static_cast<unsigned long long>(ranked[i].first));
  }
  return st == service::JobStatus::kDone ? 0 : 1;
}

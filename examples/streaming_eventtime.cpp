// Event-time streaming example: the StreamService lifecycle end to end.
//
// Starts an unbounded deterministic event stream through the job service
// (start), watches it run with live per-stream counters (poll), then winds
// it down gracefully (drain) - open windows flush and the stream completes
// like a batch job, its sink output in the ticket payload. It shows the
// event-time model (tumbling windows, watermarks) and the service lifecycle
// (DESIGN.md §12); examples/streaming_trending.cpp runs the same model with
// a custom sink in place of the default window file sink.
//
// Run:  ./examples/streaming_eventtime [--seconds=2] [--window_ms=50]
//       [--nodes=4] [--lanes=2]
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "common/flags.h"
#include "service/job_service.h"
#include "stream/source.h"
#include "stream/stream_service.h"
#include "stream/window.h"

using namespace hamr;

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "streaming_eventtime - StreamService start/poll/drain demo\n"
              "  --seconds=N     wall-clock run time before drain (2)\n"
              "  --window_ms=N   tumbling window size, event time (50)\n"
              "  --nodes=N       cluster nodes (4)\n"
              "  --lanes=N       job-service executor lanes (2)\n");
  const int64_t seconds = flags.get_int("seconds", 2);
  const int64_t window_ms = flags.get_int("window_ms", 50);
  const uint32_t nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));

  cluster::Cluster cluster(cluster::ClusterConfig::fast(nodes));
  service::ServiceConfig cfg;
  cfg.lanes = static_cast<uint32_t>(flags.get_int("lanes", 2));
  cfg.engine = engine::EngineConfig::fast();
  service::JobService jobs(cluster, cfg);
  stream::StreamService streams(jobs);

  // Unbounded generator: event i has ts = i * 200us + bounded jitter, so the
  // watermark advances steadily and windows close while the stream runs.
  stream::GeneratorConfig gen;
  gen.total_events = 0;  // unbounded: runs until drained or stopped
  gen.period_us = 200;
  gen.jitter_us = 2'000;
  gen.events_per_sec = 50'000;  // paced, so poll() has something to watch

  stream::StreamPipeline p;
  p.source = [gen] { return std::make_unique<stream::GeneratorSource>(gen); };
  p.source_options.window.size_us = window_ms * 1000;
  p.source_options.punctuate_every = 1024;
  p.fold = [](std::string_view, std::string_view value, std::string& acc) {
    const uint64_t have = acc.empty() ? 0 : std::stoull(acc);
    acc = std::to_string(have + std::stoull(std::string(value)));
  };

  stream::StreamSpec spec;
  spec.job.tenant = "demo";
  auto ticket = streams.start(std::move(p), spec);
  std::printf("stream %llu started (%u nodes, tumbling %lld ms windows)\n\n",
              static_cast<unsigned long long>(ticket->id()), nodes,
              static_cast<long long>(window_ms));

  std::printf("%8s %12s %10s %10s %14s\n", "t", "events", "windows",
              "results", "watermark");
  for (int64_t tick = 0; tick < seconds * 4; ++tick) {
    std::this_thread::sleep_for(millis(250));
    const auto prog = ticket->poll();
    std::printf("%6lldms %12llu %10llu %10llu %12lldus\n",
                static_cast<long long>(tick * 250 + 250),
                static_cast<unsigned long long>(prog.events_ingested),
                static_cast<unsigned long long>(prog.windows_emitted),
                static_cast<unsigned long long>(prog.results_emitted),
                static_cast<long long>(prog.watermark_us));
  }

  std::printf("\ndraining...\n");
  ticket->drain();
  const service::JobStatus st = ticket->wait();
  const auto prog = ticket->poll();
  std::printf("stream ended %s: %llu events in, %llu windows closed\n",
              service::to_string(st),
              static_cast<unsigned long long>(prog.events_ingested),
              static_cast<unsigned long long>(prog.windows_emitted));

  // The payload is the sink output: sorted "composite-key \t value" lines.
  const std::string out = ticket->payload();
  int shown = 0;
  size_t pos = 0;
  std::printf("\nfirst window results (window end, key, count):\n");
  while (shown < 8 && pos < out.size()) {
    const size_t nl = out.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string_view line(out.data() + pos, nl - pos);
    pos = nl + 1;
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, tab);
    std::printf("  %10lldus  %.*s = %.*s\n",
                static_cast<long long>(stream::window_key_end(key)),
                static_cast<int>(stream::window_key_user(key).size()),
                stream::window_key_user(key).data(),
                static_cast<int>(line.size() - tab - 1),
                line.data() + tab + 1);
    ++shown;
  }
  return st == service::JobStatus::kDone ? 0 : 1;
}

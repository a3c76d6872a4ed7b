// stream_rates: streaming throughput and window-emission latency.
//
// Runs one bounded generator-replay stream per executor lane through the
// full pipeline (SourceFlowlet -> EventWindowFlowlet -> WindowFileSink) on a
// shared JobService, and reports:
//   * aggregate ingested events/sec across all lanes,
//   * p50/p99 window-emission latency (stream.window_emit_latency_us: time
//     from watermark barrier armed to the windows leaving the table),
//   * watermark lag and windows emitted.
// --metrics_json dumps the merged JobResult metric snapshots (the CI
// bench-smoke artifact); --trace writes Chrome trace_event JSON.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/flags.h"
#include "obs/metrics_snapshot.h"
#include "obs/trace.h"
#include "service/job_service.h"
#include "stream/source.h"
#include "stream/stream_service.h"
#include "stream/window.h"

using namespace hamr;

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "stream_rates - event-time streaming throughput/latency\n"
              "  --lanes=N       executor lanes / concurrent streams (2)\n"
              "  --nodes=N       cluster nodes (4)\n"
              "  --threads=N     worker threads per node (4)\n"
              "  --events=N      events per source split per stream (500000)\n"
              "  --window_ms=N   tumbling window size (50)\n"
              "  --keys=N        distinct user keys (64)\n"
              "  --rate=N        events/sec pacing per split, 0 = unpaced (0)\n"
              "  --trace=FILE    Chrome trace_event JSON\n"
              "  --metrics_json=FILE  merged metrics JSON ('-' = stdout)\n");
  const uint32_t lanes = static_cast<uint32_t>(flags.get_int("lanes", 2));
  const uint32_t nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));
  const uint32_t threads = static_cast<uint32_t>(flags.get_int("threads", 4));
  const uint64_t events =
      static_cast<uint64_t>(flags.get_int("events", 500'000));
  const int64_t window_ms = flags.get_int("window_ms", 50);
  const uint64_t keys = static_cast<uint64_t>(flags.get_int("keys", 64));
  const double rate = flags.get_double("rate", 0);
  const std::string trace_path = flags.get_string("trace", "");
  const std::string metrics_path = flags.get_string("metrics_json", "");

  if (!trace_path.empty()) obs::trace().enable();

  cluster::Cluster cluster(cluster::ClusterConfig::fast(nodes, threads));
  service::ServiceConfig svc_cfg;
  svc_cfg.lanes = lanes;
  svc_cfg.engine = engine::EngineConfig::fast();
  service::JobService jobs(cluster, svc_cfg);
  stream::StreamService streams(jobs);

  std::printf("stream_rates: %u lanes x (%u nodes * %llu events), window %lld ms\n",
              lanes, nodes, static_cast<unsigned long long>(events),
              static_cast<long long>(window_ms));

  // One bounded replay per lane: each runs as a batch job over its finite
  // event set, so completion == every event ingested and every window
  // emitted (the throughput number includes full window flush).
  std::vector<std::shared_ptr<stream::StreamTicket>> tickets;
  Stopwatch sw;
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    stream::GeneratorConfig gen;
    gen.total_events = events;
    gen.period_us = 1;  // dense event time: ~1000*window_ms events per window
    gen.jitter_us = 50;
    gen.seed = 1000 + lane;
    gen.events_per_sec = rate;
    gen.make = [keys](const engine::InputSplit&, uint64_t i, std::string* key,
                      std::string* value) {
      *key = "k" + std::to_string(i % keys);
      *value = "1";
    };
    stream::StreamPipeline p;
    p.source = [gen] { return std::make_unique<stream::GeneratorSource>(gen); };
    p.source_options.window.size_us = window_ms * 1000;
    p.source_options.events_per_chunk = 2048;
    p.source_options.punctuate_every = 8192;
    p.fold = [](std::string_view, std::string_view value, std::string& acc) {
      const uint64_t add = std::stoull(std::string(value));
      const uint64_t have = acc.empty() ? 0 : std::stoull(acc);
      acc = std::to_string(have + add);
    };
    p.output_dir = "stream_rates/lane" + std::to_string(lane);
    stream::StreamSpec spec;
    spec.job.tenant = "lane" + std::to_string(lane);
    spec.duration = Duration::zero();  // bounded replay
    tickets.push_back(streams.start(std::move(p), spec));
  }

  obs::MetricsSnapshot merged;
  uint64_t total_events = 0;
  uint64_t total_windows = 0;
  bool ok = true;
  for (auto& t : tickets) {
    const service::JobStatus st = t->wait(std::chrono::seconds(600));
    if (st != service::JobStatus::kDone) {
      std::fprintf(stderr, "stream %llu ended %s\n",
                   static_cast<unsigned long long>(t->id()),
                   service::to_string(st));
      ok = false;
      continue;
    }
    // Counts come from the per-stream stats: concurrent lanes share the
    // cluster's per-node metric registries, so each job's delta snapshot also
    // sees the other lanes' increments. The merged snapshot is still the
    // right artifact for histograms (every observation is real).
    const stream::StreamTicket::Progress p = t->poll();
    total_events += p.events_ingested;
    total_windows += p.windows_emitted;
    merged.merge_from(t->result().metrics);
  }
  const double wall = sw.elapsed_seconds();

  const double rate_meps = wall > 0 ? total_events / wall / 1e6 : 0;
  std::printf("\n%-28s %12s %12s\n", "Metric", "Value", "Unit");
  std::printf("%-28s %12.3f %12s\n", "wall time", wall, "s");
  std::printf("%-28s %12llu %12s\n", "events ingested",
              static_cast<unsigned long long>(total_events), "events");
  std::printf("%-28s %12.3f %12s\n", "aggregate throughput", rate_meps,
              "M events/s");
  std::printf("%-28s %12llu %12s\n", "windows emitted",
              static_cast<unsigned long long>(total_windows), "windows");
  if (const obs::HistogramSnapshot* h =
          merged.histogram("stream.window_emit_latency_us")) {
    std::printf("%-28s %12llu %12s\n", "window emit latency p50",
                static_cast<unsigned long long>(h->quantile(0.5)), "us");
    std::printf("%-28s %12llu %12s\n", "window emit latency p99",
                static_cast<unsigned long long>(h->quantile(0.99)), "us");
  }
  if (const obs::HistogramSnapshot* h =
          merged.histogram("stream.watermark_lag_us")) {
    std::printf("%-28s %12llu %12s\n", "watermark lag p99",
                static_cast<unsigned long long>(h->quantile(0.99)), "us");
  }

  if (!trace_path.empty()) {
    obs::TraceRecorder& tr = obs::trace();
    tr.disable();
    std::ofstream out(trace_path);
    out << tr.drain_to_json();
    std::printf("trace: wrote %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const std::string json = merged.to_json();
    if (metrics_path == "-") {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(metrics_path);
      out << json;
      std::printf("metrics: wrote %s\n", metrics_path.c_str());
    }
  }
  return ok ? 0 : 1;
}

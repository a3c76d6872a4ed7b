// Job server: the resident, multi-tenant face of HAMR.
//
// One process brings up a simulated cluster, deploys a JobService with two
// executor lanes on it, and exposes the submit/poll/cancel/result verbs over
// real TCP sockets. A handful of client threads then behave like impatient
// tenants: they fire mixed batch word counts and short streaming jobs at the
// server, a burst at a time, and take whatever admission control gives them.
//
// What to look for in the output:
//   * jobs from different clients overlap in wall-clock time (two lanes);
//   * the bounded queue sheds the burst's tail with explicit REJECTED
//     tickets instead of blocking anyone;
//   * the closing metrics snapshot counts every outcome.
//
// Run:  ./examples/job_server [--nodes=4] [--lanes=2] [--clients=3]
//       [--jobs=6] [--max_queued=4]
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/flags.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "net/router.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "obs/metrics_snapshot.h"
#include "service/job_rpc.h"
#include "service/job_service.h"

using namespace hamr;
using namespace hamr::engine;
using namespace hamr::service;

namespace {

// Batch source: `user_tag` synthetic words per split, Zipf-ish skew via the
// modulus so the reduce has some shape to it.
class WordLoader : public LoaderFlowlet {
 public:
  bool load_chunk(const InputSplit& split, uint64_t* cursor,
                  Context& ctx) override {
    const uint64_t end = std::min(split.user_tag, *cursor + 2048);
    for (uint64_t i = *cursor; i < end; ++i) {
      const uint64_t id = split.offset + i;
      ctx.emit(0, "word" + std::to_string(id % (1 + id % 97)), "1");
    }
    *cursor = end;
    return end < split.user_tag;
  }
};

// Streaming source: keeps emitting ticks until the engine stops the stream.
class TickerLoader : public LoaderFlowlet {
 public:
  bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
    if (ctx.stream_stopping()) return false;
    for (int i = 0; i < 64; ++i) {
      ctx.emit(0, "tick" + std::to_string((*cursor + i) % 8),
               std::to_string(split.preferred_node));
    }
    *cursor += 64;
    std::this_thread::sleep_for(millis(1));
    return true;
  }
};

class CountReduce : public ReduceFlowlet {
 public:
  CountReduce(std::shared_ptr<std::atomic<uint64_t>> keys,
              std::shared_ptr<std::atomic<uint64_t>> records)
      : keys_(std::move(keys)), records_(std::move(records)) {}

  void reduce(std::string_view, const std::vector<std::string_view>& values,
              Context&) override {
    keys_->fetch_add(1);
    records_->fetch_add(values.size());
  }

 private:
  std::shared_ptr<std::atomic<uint64_t>> keys_;
  std::shared_ptr<std::atomic<uint64_t>> records_;
};

// Builds loader -> count-reduce work over every node; the payload reports
// what the reduce saw.
template <typename Loader>
JobWork counting_work(uint32_t nodes, uint64_t per_node) {
  auto keys = std::make_shared<std::atomic<uint64_t>>(0);
  auto records = std::make_shared<std::atomic<uint64_t>>(0);
  ir::Graph graph;
  const auto loader =
      graph.add_source("load", [] { return std::make_unique<Loader>(); });
  const auto counts = graph.add_reduce("count", [keys, records] {
    return std::make_unique<CountReduce>(keys, records);
  });
  graph.node(counts).effect = true;  // reports through `keys` and `records`
  graph.connect(loader, counts);
  for (uint32_t n = 0; n < nodes; ++n) {
    InputSplit split;
    split.offset = n * per_node;
    split.user_tag = per_node;
    split.preferred_node = n;
    graph.node(loader).splits.push_back(split);
  }
  ir::Lowered job = ir::lower(ir::optimize(std::move(graph)));
  JobWork w;
  w.graph = std::move(job.graph);
  w.inputs = std::move(job.inputs);
  w.collect = [keys, records](Engine&) {
    return "keys=" + std::to_string(keys->load()) +
           " records=" + std::to_string(records->load());
  };
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "job_server - resident multi-tenant job service over TCP\n"
              "  --nodes=N       cluster size (default 4)\n"
              "  --lanes=N       concurrent executor lanes (default 2)\n"
              "  --clients=N     client threads (default 3)\n"
              "  --jobs=N        jobs per client burst (default 6)\n"
              "  --max_queued=N  admission bound (default 4)");
  const uint32_t nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));
  const uint32_t lanes = static_cast<uint32_t>(flags.get_int("lanes", 2));
  const uint32_t clients = static_cast<uint32_t>(flags.get_int("clients", 3));
  const int jobs_per_client = static_cast<int>(flags.get_int("jobs", 6));

  // --- server side ---------------------------------------------------------
  cluster::Cluster cluster(cluster::ClusterConfig::fast(nodes));
  ServiceConfig cfg;
  cfg.lanes = lanes;
  cfg.max_queued = static_cast<size_t>(flags.get_int("max_queued", 4));
  cfg.engine = EngineConfig::fast();
  JobService service(cluster, cfg);
  service.register_builder("wordcount", [nodes](const JobSpec& spec) {
    return counting_work<WordLoader>(nodes, std::stoull(spec.args));
  });
  service.register_builder("ticker", [nodes](const JobSpec& spec) {
    JobWork w = counting_work<TickerLoader>(nodes, 1);
    w.stream_duration = millis(std::stoll(spec.args));
    return w;
  });

  // Endpoint 0 serves; endpoints 1..clients submit. All over real sockets.
  net::TcpTransport fabric(clients + 1);
  std::vector<std::unique_ptr<net::Router>> routers;
  std::vector<std::unique_ptr<net::Rpc>> rpcs;
  for (uint32_t i = 0; i <= clients; ++i) {
    routers.push_back(std::make_unique<net::Router>(fabric.endpoint(i)));
    rpcs.push_back(std::make_unique<net::Rpc>(routers[i].get()));
  }
  JobRpcServer server(&service, rpcs[0].get());
  fabric.start();
  std::printf("job server up: %u nodes, %u lanes, queue bound %zu\n", nodes,
              lanes, cfg.max_queued);

  // --- client side ---------------------------------------------------------
  std::mutex print_mu;
  std::vector<std::thread> workers;
  for (uint32_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      JobClient client(*rpcs[c + 1], /*server=*/0);
      const std::string tenant = "tenant-" + std::to_string(c);
      std::vector<uint64_t> ids;
      for (int j = 0; j < jobs_per_client; ++j) {
        JobSpec spec;
        spec.tenant = tenant;
        spec.priority = j % 3;
        // Every third job streams for a moment; the rest are batch counts.
        if (j % 3 == 2) {
          spec.job_type = "ticker";
          spec.args = "50";
        } else {
          spec.job_type = "wordcount";
          spec.args = std::to_string(20'000 * (j + 1));
        }
        JobStatus at_submit = JobStatus::kQueued;
        const uint64_t id = client.submit(spec, &at_submit);
        std::lock_guard<std::mutex> lock(print_mu);
        std::printf("  %-9s submit #%llu %-9s prio=%d -> %s\n", tenant.c_str(),
                    static_cast<unsigned long long>(id), spec.job_type.c_str(),
                    spec.priority, to_string(at_submit));
        if (at_submit == JobStatus::kQueued) ids.push_back(id);
      }
      for (const uint64_t id : ids) {
        const JobStatus st = client.wait(id);
        const JobClient::RemoteResult res = client.result(id);
        std::lock_guard<std::mutex> lock(print_mu);
        std::printf("  %-9s job #%llu %-8s %.3fs  %s\n", tenant.c_str(),
                    static_cast<unsigned long long>(id), to_string(st),
                    res.wall_seconds, res.payload.c_str());
      }
    });
  }
  for (auto& t : workers) t.join();
  fabric.stop();

  std::printf("\nservice metrics:\n%s\n",
              obs::MetricsSnapshot::capture(service.metrics()).to_json().c_str());
  return 0;
}

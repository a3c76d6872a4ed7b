// Microbenchmarks for the job service: closed-loop submit-to-done latency,
// multi-lane throughput, and the admission-control shed path (what a caller
// pays for a rejection - it must be cheap, it runs on RPC delivery threads).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "service/job_service.h"

using namespace hamr;
using namespace hamr::engine;
using namespace hamr::service;

namespace {

class TinyLoader : public LoaderFlowlet {
 public:
  bool load_chunk(const InputSplit& split, uint64_t* cursor,
                  Context& ctx) override {
    for (uint64_t i = 0; i < split.user_tag; ++i) {
      ctx.emit(0, "k" + std::to_string(split.offset + i), "v");
    }
    (void)cursor;
    return false;
  }
};

class DiscardSink : public MapFlowlet {
 public:
  void process(const KvPair&, Context&) override {}
};

JobWork tiny_work(uint64_t records) {
  ir::Graph graph;
  const auto loader =
      graph.add_source("load", [] { return std::make_unique<TinyLoader>(); });
  const auto sink =
      graph.add_sink("sink", [] { return std::make_unique<DiscardSink>(); });
  graph.connect(loader, sink);
  InputSplit split;
  split.user_tag = records;
  split.preferred_node = 0;
  graph.node(loader).splits.push_back(split);
  ir::Lowered job = ir::lower(ir::optimize(std::move(graph)));
  JobWork w;
  w.graph = std::move(job.graph);
  w.inputs = std::move(job.inputs);
  return w;
}

ServiceConfig bench_config(uint32_t lanes, size_t max_queued = 256) {
  ServiceConfig cfg;
  cfg.lanes = lanes;
  cfg.max_queued = max_queued;
  cfg.engine = EngineConfig::fast();
  return cfg;
}

}  // namespace

// One job at a time, submit -> terminal: the full lifecycle round-trip
// (admission, dispatch, engine run, finalize) for a near-empty job.
static void BM_SubmitToDoneLatency(benchmark::State& state) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, bench_config(/*lanes=*/1));
  uint64_t done = 0;
  for (auto _ : state) {
    auto ticket = svc.submit(JobSpec{}, tiny_work(/*records=*/16));
    done += ticket->wait() == JobStatus::kDone;
  }
  if (done != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("job did not complete");
  }
  state.SetItemsProcessed(static_cast<int64_t>(done));
}
BENCHMARK(BM_SubmitToDoneLatency)->Unit(benchmark::kMicrosecond);

// A burst of jobs drained through N lanes: closed-loop service throughput,
// and the lane-scaling headline (2 lanes should beat 1 on 2-thread nodes).
static void BM_BurstThroughputByLanes(benchmark::State& state) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster,
                 bench_config(static_cast<uint32_t>(state.range(0))));
  constexpr int kBurst = 16;
  for (auto _ : state) {
    std::vector<std::shared_ptr<JobTicket>> tickets;
    tickets.reserve(kBurst);
    for (int j = 0; j < kBurst; ++j) {
      JobSpec spec;
      spec.tenant = "t" + std::to_string(j % 4);
      tickets.push_back(svc.submit(spec, tiny_work(/*records=*/16)));
    }
    for (auto& t : tickets) {
      if (t->wait() != JobStatus::kDone) state.SkipWithError("job failed");
    }
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_BurstThroughputByLanes)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The shed path: with a zero-depth queue every submit is rejected on the
// spot. This is the cost a full server charges each caller - it must stay
// both bounded and blocking-free.
static void BM_AdmissionShedLatency(benchmark::State& state) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, bench_config(/*lanes=*/1, /*max_queued=*/0));
  uint64_t rejected = 0;
  for (auto _ : state) {
    auto ticket = svc.submit(JobSpec{}, tiny_work(/*records=*/16));
    rejected += ticket->status() == JobStatus::kRejected;
  }
  if (rejected != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("expected every submit to shed");
  }
  state.SetItemsProcessed(static_cast<int64_t>(rejected));
}
BENCHMARK(BM_AdmissionShedLatency)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();

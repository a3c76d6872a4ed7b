// Engine: the cluster-wide HAMR instance and job driver.
//
// One Engine is deployed per cluster (like the HAMR daemon set in the paper);
// it owns a NodeRuntime on every node plus the distributed key-value store,
// and runs jobs - batch or streaming - one at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <vector>

#include "cluster/cluster.h"
#include "engine/config.h"
#include "engine/graph.h"
#include "engine/runtime.h"
#include "engine/split.h"
#include "kvstore/kv_store.h"
#include "obs/metrics_snapshot.h"

namespace hamr::engine {

struct JobResult {
  double wall_seconds = 0;
  uint64_t faults_injected = 0;    // injector events during this job

  // True when the job was aborted via Engine::request_cancel(): the run
  // completed the shutdown protocol cleanly but skipped remaining work, so
  // outputs are partial and must be discarded by the caller.
  bool cancelled = false;

  // Cluster-wide metrics delta for this job: every counter that moved,
  // final gauge levels, and latency histograms - including the per-flowlet
  // task-latency histograms engine.flowlet.<id>.task_us registered at job
  // build time. Job counters are read from here, e.g.
  // metrics.counter("engine.records") or metrics.counter("engine.resends").
  obs::MetricsSnapshot metrics;
};

class Engine {
 public:
  Engine(cluster::Cluster& cluster, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs a batch job to completion. Graphs are validated on entry; jobs run
  // one at a time per engine.
  JobResult run(const FlowletGraph& graph, const JobInputs& inputs);

  // Runs a streaming job: stream loaders (LoaderFlowlets that keep returning
  // true from load_chunk until Context::stream_stopping()) are stopped after
  // `duration`, or earlier on request_stream_drain()/request_cancel().
  // Completion then cascades as in batch. Windows are event-time only: a
  // stream_windowed partial reduce closes them on watermark punctuation
  // (src/stream/), and any other partial reduce emits once, at completion.
  JobResult run_streaming(const FlowletGraph& graph, const JobInputs& inputs,
                          Duration duration);

  // Asks the currently running job (if any) to abort: loaders stop, queued
  // bins are drained without processing, reduce stages are skipped, and the
  // completion protocol still runs so run() returns promptly with
  // JobResult::cancelled set. Safe from any thread; a no-op when idle.
  void request_cancel();

  // Gracefully winds down the in-flight *streaming* job: sources observe
  // stream_stopping() at their next chunk, buffered state flushes through
  // the normal completion cascade, and run_streaming returns early with a
  // normal (non-cancelled) result whose outputs are complete. Safe from any
  // thread; harmless for batch jobs. Returns false when no job is running
  // yet (callers racing a dispatch retry until it lands or the job ends).
  bool request_stream_drain();

  // True while a cancel is pending for the in-flight job.
  bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_relaxed);
  }

  kv::KvStore& kv() { return kv_; }
  cluster::Cluster& cluster() { return cluster_; }
  const EngineConfig& config() const { return config_; }

  // Cluster-wide counter sum convenience (engine.* counters live on node
  // metrics).
  uint64_t total_counter(const std::string& name) const {
    return cluster_.total_counter(name);
  }

 private:
  friend class NodeRuntime;
  friend class TaskContext;

  JobResult run_internal(const FlowletGraph& graph, const JobInputs& inputs,
                         Duration stream_duration);
  void node_job_done(uint32_t node);
  NodeRuntime& runtime(uint32_t node) { return *runtimes_.at(node); }

  cluster::Cluster& cluster_;
  EngineConfig config_;
  kv::KvStore kv_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;

  uint64_t epoch_ = 0;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  uint32_t nodes_done_ = 0;
  bool job_running_ = false;
  std::atomic<bool> cancel_requested_{false};
  std::atomic<bool> drain_requested_{false};
};

}  // namespace hamr::engine

// StreamService: first-class streaming jobs on the shared JobService.
//
// A stream is an ordinary job to the service - admitted through the same
// bounded queue, dispatched to an executor lane, visible to tenant fair
// share and deadlines - but long-lived: its loader is a SourceFlowlet that
// keeps polling a StreamSource, its partial reduce is an EventWindowFlowlet
// closing event-time windows on watermark alignment, and its lifecycle adds
// a graceful *drain* (stop sources, flush buffered windows, complete kDone
// with the collected output) next to the existing cancel.
//
//   StreamService streams(jobs);
//   auto t = streams.start(pipeline, spec);   // admitted like any job
//   t->poll();                                // live StreamStats snapshot
//   t->drain();                               // wind down, keep results
//   t->wait(); t->payload();                  // sink output, exactly once
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/clock.h"
#include "service/job_service.h"
#include "stream/source.h"
#include "stream/window.h"

namespace hamr::stream {

// What runs on every node: source -> event-time windows -> sink.
struct StreamPipeline {
  // Creates one node's StreamSource (invoked once per node; per-node
  // behavior keys off the split the engine hands the instance).
  std::function<std::unique_ptr<StreamSource>()> source;
  SourceOptions source_options;

  // Per-(window, user key) accumulator fold.
  WindowFold fold;
  // expected_origins and stats are overwritten by start(); the rest is kept.
  WindowOptions window_options;

  // Closed windows land in a WindowFileSink writing `<output_dir>/node<id>`
  // per node, unless `sink` overrides the sink flowlet (then collect returns
  // an empty payload unless output_dir files exist).
  std::string output_dir = "stream/out";
  engine::FlowletFactory sink;
};

struct StreamSpec {
  service::JobSpec job;
  // Wall-clock lifetime; a drain/stop ends it earlier. Duration::zero() runs
  // the pipeline as a *bounded replay*: a plain batch job over the sources'
  // finite event sets (chaos tests and backfills) - drain is then a no-op.
  Duration duration = Duration::zero();
};

// Live view of one stream, shared between the caller and the service.
class StreamTicket {
 public:
  struct Progress {
    service::JobStatus status = service::JobStatus::kQueued;
    uint64_t events_ingested = 0;
    uint64_t windows_emitted = 0;
    uint64_t results_emitted = 0;
    uint64_t backpressure_stalls = 0;
    int64_t watermark_us = INT64_MIN;
    int64_t window_bytes = 0;
  };

  uint64_t id() const { return job_->id(); }
  service::JobStatus status() const { return job_->status(); }
  const std::shared_ptr<service::JobTicket>& job() const { return job_; }

  // Snapshot of the stream's own counters (lane-safe: the stats block is
  // private to this job, unlike the node-wide metrics registry).
  Progress poll() const;

  // Graceful wind-down: sources stop, buffered windows flush through the
  // final watermark, the job completes kDone with its payload.
  bool drain() { return service_->drain(job_->id()); }
  // Hard stop: the job aborts at the next task boundary as kCancelled.
  bool stop() { return service_->cancel(job_->id()); }

  service::JobStatus wait(Duration timeout = std::chrono::seconds(60)) const {
    return job_->wait(timeout);
  }
  std::string payload() const { return job_->payload(); }
  engine::JobResult result() const { return job_->result(); }

 private:
  friend class StreamService;
  StreamTicket(service::JobService* service,
               std::shared_ptr<service::JobTicket> job,
               std::shared_ptr<StreamStats> stats)
      : service_(service), job_(std::move(job)), stats_(std::move(stats)) {}

  service::JobService* service_;
  std::shared_ptr<service::JobTicket> job_;
  std::shared_ptr<StreamStats> stats_;
};

class StreamService {
 public:
  explicit StreamService(service::JobService& jobs) : jobs_(jobs) {}

  // Builds the 3-stage graph, wires a fresh StreamStats block through both
  // ends, and submits. The returned ticket may already be kRejected (full
  // queue) - same non-blocking admission as any job.
  std::shared_ptr<StreamTicket> start(StreamPipeline pipeline,
                                      StreamSpec spec = {});

  // Builds the pipeline as an ir::Graph (source -> window -> sink) and
  // lowers it into a JobWork without submitting (bench/tests that drive an
  // Engine directly). One source split per node; `stats` may be null.
  static service::JobWork make_work(StreamPipeline pipeline, uint32_t nodes,
                                    std::shared_ptr<StreamStats> stats);

 private:
  service::JobService& jobs_;
};

}  // namespace hamr::stream

#include "stream/stream_service.h"

#include <stdexcept>
#include <utility>

#include "ir/lower.h"
#include "ir/passes.h"

namespace hamr::stream {

StreamTicket::Progress StreamTicket::poll() const {
  Progress p;
  p.status = job_->status();
  const StreamStats& s = *stats_;
  p.events_ingested = s.events_ingested.load(std::memory_order_relaxed);
  p.windows_emitted = s.windows_emitted.load(std::memory_order_relaxed);
  p.results_emitted = s.results_emitted.load(std::memory_order_relaxed);
  p.backpressure_stalls =
      s.backpressure_stalls.load(std::memory_order_relaxed);
  p.watermark_us = s.watermark.load(std::memory_order_relaxed);
  p.window_bytes = s.window_bytes.load(std::memory_order_relaxed);
  return p;
}

service::JobWork StreamService::make_work(StreamPipeline pipeline,
                                          uint32_t nodes,
                                          std::shared_ptr<StreamStats> stats) {
  if (!pipeline.source) {
    throw std::invalid_argument("StreamPipeline needs a source factory");
  }
  if (!pipeline.fold) {
    throw std::invalid_argument("StreamPipeline needs a window fold");
  }

  SourceOptions src_opts = pipeline.source_options;
  src_opts.stats = stats;
  WindowOptions win_opts = pipeline.window_options;
  win_opts.stats = stats;
  // Watermarks align across one punctuation origin per source split, and
  // start() lays out one split per node.
  win_opts.expected_origins = nodes;

  ir::Graph graph;
  auto source = std::move(pipeline.source);
  const ir::NodeId src_id = graph.add_source(
      "stream.source", [source, src_opts]() -> std::unique_ptr<engine::Flowlet> {
        return std::make_unique<SourceFlowlet>(source(), src_opts);
      });
  auto fold = std::move(pipeline.fold);
  const ir::NodeId win_id = graph.add_combine(
      "stream.window", [fold, win_opts]() -> std::unique_ptr<engine::Flowlet> {
        return std::make_unique<EventWindowFlowlet>(fold, win_opts);
      });
  engine::FlowletFactory sink = std::move(pipeline.sink);
  if (!sink) {
    const std::string dir = pipeline.output_dir;
    sink = [dir]() -> std::unique_ptr<engine::Flowlet> {
      return std::make_unique<WindowFileSink>(dir);
    };
  }
  const ir::NodeId sink_id = graph.add_sink("stream.sink", std::move(sink));

  // Hash-partitioned data edge: (window, key) records and punctuation share
  // per-(src,dst) FIFO channels. Never a combine edge (the window is not
  // combinable) - sender-side combining would fold punctuation into combine
  // tables.
  graph.connect(src_id, win_id);
  // Closed windows ride the reliable shuffle downstream like any records.
  graph.connect(win_id, sink_id);

  for (uint32_t n = 0; n < nodes; ++n) {
    engine::InputSplit split;
    split.preferred_node = n;
    split.user_tag = n;
    graph.node(src_id).splits.push_back(split);
  }

  ir::Lowered lowered = ir::lower(ir::optimize(std::move(graph)));
  service::JobWork work;
  work.graph = std::move(lowered.graph);
  work.inputs = std::move(lowered.inputs);
  const std::string dir = pipeline.output_dir;
  work.collect = [dir](engine::Engine& eng) {
    return WindowFileSink::read_all(eng.cluster(), dir);
  };
  return work;
}

std::shared_ptr<StreamTicket> StreamService::start(StreamPipeline pipeline,
                                                   StreamSpec spec) {
  auto stats = std::make_shared<StreamStats>();
  const uint32_t nodes = jobs_.lane_engine(0).cluster().size();
  service::JobWork work = make_work(std::move(pipeline), nodes, stats);
  work.stream_duration = spec.duration;  // zero = bounded batch replay

  std::shared_ptr<service::JobTicket> job =
      jobs_.submit(spec.job, std::move(work));
  return std::shared_ptr<StreamTicket>(
      new StreamTicket(&jobs_, std::move(job), std::move(stats)));
}

}  // namespace hamr::stream

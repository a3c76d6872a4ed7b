#include "engine/runtime.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <optional>

#include "common/hash.h"
#include "common/logging.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "storage/run_file.h"

namespace hamr::engine {

namespace {

// Control message kinds carried in kEngineControl payloads.
constexpr uint64_t kCtlComplete = 1;

// How long a task parked by flow control waits before it is resubmitted.
constexpr Duration kDeferRetry = std::chrono::milliseconds(2);

// Sub-partition / stripe selection must be independent of the node-partition
// hash, or all of a node's keys would land in one stage.
uint32_t stage_of(std::string_view key) {
  return static_cast<uint32_t>(hash_combine(hash_bytes(key), 0x5743) %
                               internal::kReduceStages);
}

// Takes the key's hash_bytes, which the caller also probes the stripe's table
// with: one hash per folded record.
uint32_t stripe_of(uint64_t key_hash, uint32_t stripes) {
  return stripes <= 1
             ? 0
             : static_cast<uint32_t>(hash_combine(key_hash, 0x9d13) % stripes);
}

// Reads a control message: the flowlet a COMPLETE for `job` names, or nothing
// for another job's message or another kind. Throws serde::DecodeError on
// malformed bytes or a flowlet id outside the job's graph.
std::optional<FlowletId> parse_complete(std::string_view bytes,
                                        const internal::JobState& job) {
  serde::Reader r(bytes);
  if (r.get_varint() != job.epoch) return std::nullopt;
  const uint64_t kind = r.get_varint();
  const uint64_t flowlet = r.get_varint();
  if (kind != kCtlComplete) return std::nullopt;
  if (flowlet >= job.graph->num_flowlets()) {
    throw serde::DecodeError("control message names no flowlet of the job");
  }
  return static_cast<FlowletId>(flowlet);
}

// Exponential backoff: base doubled per attempt, capped.
Duration backoff_after(Duration base, Duration cap, uint32_t attempt) {
  Duration d = base;
  for (uint32_t i = 0; i < attempt && d < cap; ++i) d += d;
  return std::min(d, cap);
}

}  // namespace

// ---------------------------------------------------------------------------
// TaskContext: the Context implementation handed to flowlet code for the
// duration of one task. Buffers emissions into per-(edge, destination) bin
// builders - a dense vector indexed by edge * num_nodes + dst, one
// allocation per task instead of a map node per stream - flushing full bins
// immediately and the rest at task end.
// ---------------------------------------------------------------------------
class TaskContext : public Context {
 public:
  TaskContext(NodeRuntime* rt, internal::JobState* job, FlowletId fid,
              bool allow_emit = true)
      : rt_(rt),
        job_(job),
        fid_(fid),
        allow_emit_(allow_emit),
        nodes_(rt->engine_->cluster().size()),
        builders_(job->graph->num_edges() * nodes_) {}

  ~TaskContext() override { flush_all(); }

  void emit(uint32_t port, std::string_view key, std::string_view value) override {
    require_emit();
    const GraphEdge& edge = out_edge(port);
    if (edge.options.combine) {
      combine_emit(edge, key, value);
      return;
    }
    const NodeId dst =
        edge.options.local ? rt_->node_id()
        : edge.options.partitioner
            ? edge.options.partitioner(key, num_nodes()) % num_nodes()
            : partition_of(key, num_nodes());
    if (edge.options.tap) edge.options.tap(dst, key, value);
    add_record(edge.id, dst, key, value);
  }

  void emit_to_node(uint32_t port, NodeId node, std::string_view key,
                    std::string_view value) override {
    require_emit();
    const GraphEdge& edge = out_edge(port);
    const NodeId dst = node % num_nodes();
    if (edge.options.tap) edge.options.tap(dst, key, value);
    add_record(edge.id, dst, key, value);
  }

  void emit_broadcast(uint32_t port, std::string_view key,
                      std::string_view value) override {
    require_emit();
    const GraphEdge& edge = out_edge(port);
    for (NodeId n = 0; n < num_nodes(); ++n) {
      if (edge.options.tap) edge.options.tap(n, key, value);
      add_record(edge.id, n, key, value);
    }
  }

  NodeId node() const override { return rt_->node_id(); }
  uint32_t num_nodes() const override { return rt_->engine_->cluster().size(); }
  uint32_t num_out_ports() const override {
    return static_cast<uint32_t>(job_->graph->flowlet(fid_).out_edges.size());
  }
  kv::KvStore& kv() override { return rt_->engine_->kv(); }
  storage::FileStore& local_store() override { return rt_->node().store(); }
  Metrics& metrics() override { return rt_->metrics(); }
  bool stream_stopping() const override {
    return rt_->streaming_stop_.load(std::memory_order_relaxed);
  }

  void flush_all() {
    for (size_t slot = 0; slot < builders_.size(); ++slot) {
      flush_builder(static_cast<NodeId>(slot % nodes_), builders_[slot]);
    }
    charge_combine_gates();
    flush_record_count();
  }

 private:
  void require_emit() const {
    if (!allow_emit_) {
      throw std::logic_error(
          "Flowlet::start() must not emit records (load/process/finish only)");
    }
  }

  // Emits run once per record; resolving port -> graph edge through two
  // bounds-checked vector hops each time showed up in profiles, so the
  // resolved pointers are cached per port after the first lookup.
  const GraphEdge& out_edge(uint32_t port) {
    if (port < out_edges_.size() && out_edges_[port] != nullptr) {
      return *out_edges_[port];
    }
    const GraphNode& node = job_->graph->flowlet(fid_);
    const GraphEdge& edge = job_->graph->edge(node.out_edges.at(port));
    if (out_edges_.size() <= port) out_edges_.resize(port + 1, nullptr);
    out_edges_[port] = &edge;
    return edge;
  }

  void add_record(EdgeId edge, NodeId dst, std::string_view key,
                  std::string_view value) {
    BinBuilder& builder = builders_[static_cast<size_t>(edge) * nodes_ + dst];
    if (!builder.is_open()) builder.open(job_->epoch, edge);
    builder.add(key, value);
    // Counted locally and charged to the shared counter per flushed bin /
    // at task end - one atomic per record was measurable on 10^6-record
    // shuffles.
    ++records_pending_;
    if (builder.payload_bytes() >= rt_->config_.bin_size_bytes) {
      flush_builder(dst, builder);
    }
  }

  void flush_builder(NodeId dst, BinBuilder& builder) {
    if (builder.empty()) return;
    flush_record_count();
    rt_->send_bin(dst, builder);
  }

  void flush_record_count() {
    if (records_pending_ != 0) {
      rt_->records_c_->add(records_pending_);
      records_pending_ = 0;
    }
    if (combine_folds_pending_ != 0) {
      rt_->combine_folds_c_->add(combine_folds_pending_);
      combine_folds_pending_ = 0;
    }
  }

  // Sender-side combining: fold into the node-shared combine table for this
  // edge. The table is shared by all worker threads of the node (one engine
  // instance per node), so updates pay the stripe's serialized-update cost,
  // charged in batch at task end.
  void combine_emit(const GraphEdge& edge, std::string_view key,
                    std::string_view value) {
    internal::FlowletState& src_state = *job_->flowlets[edge.src];
    internal::PartialTable* table = src_state.combine_tables.at(edge.id).get();
    auto* dst_flowlet = static_cast<PartialReduceFlowlet*>(
        job_->flowlets[edge.dst]->instance.get());

    const uint64_t h = hash_bytes(key);
    const uint32_t si =
        stripe_of(h, static_cast<uint32_t>(table->stripes.size()));
    internal::PartialTable::Stripe& stripe = table->stripes[si];
    bool overflow = false;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      // Heterogeneous probe: the record's string_view goes straight into the
      // flat table, no per-fold std::string key.
      std::string& acc = stripe.acc.find_or_insert(key, h);
      dst_flowlet->fold(key, value, acc);
      overflow = stripe.acc.size() > kCombineStripeKeys;
    }
    // Counted per task, like records_pending_, and flushed with it.
    ++combine_folds_pending_;
    // Debt is keyed by the gate pointer itself, so the batch charge at task
    // end does not re-resolve graph edge -> table -> stripe per entry. A
    // disabled gate charges nothing, so it accrues no debt.
    if (stripe.gate->enabled()) combine_gate_debt_[stripe.gate.get()] += 1;
    if (overflow) {
      charge_combine_gates();
      rt_->flush_combine_stripe(*job_, edge.id, si);
    }
  }

  void charge_combine_gates() {
    for (auto& [gate, count] : combine_gate_debt_) gate->charge(count);
    combine_gate_debt_.clear();
  }

  static constexpr size_t kCombineStripeKeys = 4096;

  NodeRuntime* rt_;
  internal::JobState* job_;
  FlowletId fid_;
  bool allow_emit_;
  uint32_t nodes_;
  std::vector<BinBuilder> builders_;  // indexed by edge * nodes_ + dst
  std::vector<const GraphEdge*> out_edges_;  // per-port cache, lazily filled
  uint64_t records_pending_ = 0;
  uint64_t combine_folds_pending_ = 0;
  std::map<RateGate*, uint64_t> combine_gate_debt_;
};

// ---------------------------------------------------------------------------
// NodeRuntime
// ---------------------------------------------------------------------------

NodeRuntime::NodeRuntime(Engine* engine, cluster::Node* node,
                         const EngineConfig& config)
    : engine_(engine),
      node_(node),
      config_(config),
      bin_type_(net::msg_type::engine_bin(config.lane)),
      control_type_(net::msg_type::engine_control(config.lane)),
      frame_type_(net::msg_type::engine_frame(config.lane)),
      ack_type_(net::msg_type::engine_ack(config.lane)),
      sched_(config.worker_threads != 0
                 ? config.worker_threads
                 : engine->cluster().config().threads_per_node,
             config.bin_queue_bytes) {
  node_->router().register_type(
      bin_type_, [this](net::Message&& m) { on_bin_message(std::move(m)); });
  node_->router().register_type(
      control_type_,
      [this](net::Message&& m) { on_control_message(std::move(m)); });
  node_->router().register_type(
      frame_type_, [this](net::Message&& m) { on_frame_message(std::move(m)); });
  node_->router().register_type(
      ack_type_, [this](net::Message&& m) { on_ack_message(std::move(m)); });
  // One reliable channel per peer, even when the reliable layer is off (the
  // structs are tiny and the handlers above are always registered).
  send_channels_.resize(engine_->cluster().size());
  recv_channels_.resize(engine_->cluster().size());
  frames_sent_c_ = metrics().counter("engine.frames_sent");
  frames_recv_c_ = metrics().counter("engine.frames_recv");
  records_c_ = metrics().counter("engine.records");
  bins_c_ = metrics().counter("engine.bins");
  bin_bytes_c_ = metrics().counter("engine.bin_bytes");
  combine_folds_c_ = metrics().counter("engine.combine_folds");
  folds_c_ = metrics().counter("engine.folds");
  stalls_c_ = metrics().counter("engine.stalls");
  stall_ns_c_ = metrics().counter("engine.stall_ns");
  task_retries_c_ = metrics().counter("engine.task_retries");
  spill_runs_c_ = metrics().counter("sort.spill_runs");
  spills_c_ = metrics().counter("engine.spills");
  spill_bytes_c_ = metrics().counter("engine.spill_bytes");
  spill_retries_c_ = metrics().counter("engine.spill_retries");
  dup_frames_c_ = metrics().counter("engine.dup_frames");
  resends_c_ = metrics().counter("engine.resends");
  frames_lost_c_ = metrics().counter("engine.frames_lost");
  unacked_frames_g_ = metrics().gauge("engine.unacked_frames");
  retry_backoff_us_h_ = metrics().histogram("engine.retry_backoff_us");
  stall_us_h_ = metrics().histogram("engine.stall_us");
  task_us_h_ = metrics().histogram("engine.task_us");
  merge_fan_in_h_ = metrics().histogram("sort.merge_fan_in");
  arena_bytes_g_ = metrics().gauge("engine.arena_bytes");
  windows_emitted_c_ = metrics().counter("stream.windows_emitted");
  window_emit_us_h_ = metrics().histogram("stream.window_emit_latency_us");
  wm_lag_us_h_ = metrics().histogram("stream.watermark_lag_us");
  Scheduler::Hooks hooks;
  hooks.lock_wait_ns = metrics().counter("engine.sched_lock_wait_ns");
  hooks.budget_wait_ns = metrics().counter("engine.bin_queue_wait_ns");
  hooks.depth = metrics().gauge("engine.bin_queue_depth");
  hooks.bytes = metrics().gauge("engine.bin_queue_bytes");
  sched_.set_hooks(hooks);
  const uint32_t workers = sched_.workers();
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  sender_ = std::thread([this] { sender_loop(); });
}

NodeRuntime::~NodeRuntime() {
  stopping_.store(true);
  sched_.stop();
  out_cv_.notify_all();
  // Under fault plans the transport can still hold delayed duplicates or
  // resends after the job completes; unregistering blocks until in-flight
  // dispatches into this runtime drain (they wake via stopping_ above), and
  // later stragglers are dropped as unroutable instead of hitting freed
  // memory.
  node_->router().unregister_type(bin_type_);
  node_->router().unregister_type(control_type_);
  node_->router().unregister_type(frame_type_);
  node_->router().unregister_type(ack_type_);
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (sender_.joinable()) sender_.join();
}

bool NodeRuntime::job_cancelled() const { return engine_->cancel_requested(); }

void NodeRuntime::attach_job(std::shared_ptr<internal::JobState> job) {
  std::lock_guard<std::mutex> lock(job_mu_);
  job_ = std::move(job);
  staged_bytes_.store(0);
  streaming_stop_.store(false);
}

std::shared_ptr<internal::JobState> NodeRuntime::current_job() const {
  std::lock_guard<std::mutex> lock(job_mu_);
  return job_;
}

void NodeRuntime::activate_job(
    const std::map<FlowletId, std::vector<InputSplit>>& my_splits) {
  auto job = current_job();
  internal::JobState& js = *job;

  // start() for every flowlet instance, inline and emission-free (enforced).
  for (FlowletId f = 0; f < js.flowlets.size(); ++f) {
    TaskContext ctx(this, &js, f, /*allow_emit=*/false);
    js.flowlets[f]->instance->start(ctx);
  }

  // Record split counts first so completions can't race the last chunk.
  for (const auto& [loader, split_list] : my_splits) {
    js.flowlets[loader]->splits_outstanding.store(split_list.size());
  }
  for (const auto& [loader, split_list] : my_splits) {
    for (const InputSplit& split : split_list) {
      const FlowletId loader_id = loader;
      submit_task([this, loader_id, split] { run_split_chunk(loader_id, split, 0); });
    }
  }

  // Flowlets with no upstream channels and no splits complete immediately.
  for (FlowletId f = 0; f < js.flowlets.size(); ++f) {
    maybe_schedule_finish(f);
  }
}

// --- ingress ---------------------------------------------------------------

void NodeRuntime::on_bin_message(net::Message&& msg) {
  auto job = current_job();
  if (!job) return;
  uint64_t bin_index = 0;
  // Parse only the header to account the pending bin (cheap).
  try {
    BinView view(msg.payload.view());
    if (view.job_epoch() != job->epoch) return;  // stale job traffic
    if (view.edge() >= job->graph->num_edges()) {
      throw serde::DecodeError("bin names no edge of the job");
    }
    const GraphEdge& edge = job->graph->edge(view.edge());
    // Log before the pending_bins increment becomes visible so the event's
    // log position always precedes any completion it could enable.
    log_event(obs::EventKind::kBinEnqueued, edge.dst,
              static_cast<int64_t>(view.records()));
    obs::trace().record_instant("bin.enqueue", "engine.bin", node_id(),
                                edge.dst, static_cast<int64_t>(view.records()));
    job->flowlets[edge.dst]->pending_bins.fetch_add(1);
    // The fetch_add return value is this bin's enqueue index: any watermark
    // barrier armed after this point has armed_target > index, and the close
    // waits for the processed prefix to pass it.
    bin_index = job->flowlets[edge.dst]->bins_enqueued.fetch_add(1);
  } catch (const serde::DecodeError& e) {
    HLOG_ERROR << "node " << node_id() << " malformed bin: " << e.what();
    return;
  }
  QueueItem item;
  item.src = msg.src;
  item.bin_index = bin_index;
  item.payload = std::move(msg.payload);
  sched_.push_bin(std::move(item));
}

void NodeRuntime::on_control_message(net::Message&& msg) {
  auto job = current_job();
  if (!job) return;
  // Checked on the delivery thread, as a bin's header is: over TCP these
  // bytes come from outside the process, and a worker must not throw.
  try {
    if (!parse_complete(msg.payload.view(), *job)) return;
  } catch (const serde::DecodeError& e) {
    HLOG_ERROR << "node " << node_id() << " malformed control message from "
               << msg.src << ": " << e.what();
    return;
  }
  QueueItem item;
  item.is_control = true;
  item.src = msg.src;
  item.payload = std::move(msg.payload);
  sched_.push_bin(std::move(item));
}

// Reliable channel ingress: unwrap the frame, suppress duplicates, stash
// out-of-order arrivals, and hand the in-order prefix to the regular bin /
// control handlers - restoring exactly the per-(src,dst) FIFO the completion
// protocol relies on. The cumulative ack goes out *before* inner delivery:
// delivery can block on the bin-queue budget (receiver backpressure), and a
// stalled ack would make the sender retransmit frames we already hold.
void NodeRuntime::on_frame_message(net::Message&& msg) {
  const uint32_t src = msg.src;
  uint64_t seq = 0;
  uint32_t inner_type = 0;
  net::Payload inner;
  try {
    // The frame header (varint seq | varint type | varint len) is an in-proc
    // frame's head and the front of a TCP frame's one buffer; either way
    // view() starts with it, and the framed message is the rest - a slice
    // of the same body.
    serde::Reader r(msg.payload.view());
    seq = r.get_varint();
    inner_type = static_cast<uint32_t>(r.get_varint());
    const uint64_t len = r.get_varint();
    inner = msg.payload.suffix(r.position());
    if (inner.size() != len) throw serde::DecodeError("frame length mismatch");
  } catch (const serde::DecodeError& e) {
    HLOG_ERROR << "node " << node_id() << " malformed frame from " << src << ": "
               << e.what();
    return;
  }

  std::vector<std::pair<uint32_t, net::Payload>> deliverable;
  uint64_t ack = 0;
  {
    RecvChannel& ch = recv_channels_.at(src);
    std::lock_guard<std::mutex> lock(ch.mu);
    if (seq < ch.next_expected || ch.stash.count(seq) != 0) {
      // Retransmission of a frame we already have (its ack was lost or late).
      dup_frames_c_->inc();
      obs::trace().record_instant("shuffle.dup", "engine.shuffle", node_id(),
                                  -1, static_cast<int64_t>(seq));
    } else {
      frames_recv_c_->inc();
      obs::trace().record_instant("shuffle.recv", "engine.shuffle", node_id(),
                                  -1, static_cast<int64_t>(seq));
      ch.stash.emplace(seq, std::make_pair(inner_type, std::move(inner)));
      for (auto it = ch.stash.find(ch.next_expected); it != ch.stash.end();
           it = ch.stash.find(ch.next_expected)) {
        deliverable.push_back(std::move(it->second));
        ch.stash.erase(it);
        ++ch.next_expected;
      }
    }
    ack = ch.next_expected;
  }

  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(ack);
  raw_enqueue_out(src, ack_type_, std::string(buf.view()));

  for (auto& [type, payload] : deliverable) {
    net::Message m{type, src, std::move(payload)};
    if (type == control_type_) {
      on_control_message(std::move(m));
    } else {
      on_bin_message(std::move(m));
    }
  }
}

void NodeRuntime::on_ack_message(net::Message&& msg) {
  uint64_t cum = 0;
  try {
    serde::Reader r(msg.payload.view());
    cum = r.get_varint();
  } catch (const serde::DecodeError& e) {
    HLOG_ERROR << "node " << node_id() << " malformed ack from " << msg.src << ": "
               << e.what();
    return;
  }
  SendChannel& ch = send_channels_.at(msg.src);
  uint64_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(ch.mu);
    for (auto it = ch.unacked.begin(); it != ch.unacked.end() && it->first < cum;
         it = ch.unacked.erase(it)) {
      // Dropping the entry releases the frame's shared body; when this was
      // the last reference the bin's memory is freed.
      ++erased;
    }
  }
  if (erased != 0) {
    unacked_frames_g_->sub(static_cast<int64_t>(erased));
  }
}

// --- scheduler ---------------------------------------------------------------

void NodeRuntime::submit_task(std::function<void()> task) {
  sched_.push_task(std::move(task));
}

void NodeRuntime::defer_task(FlowletId flowlet, int64_t tag,
                             std::function<void()> task) {
  // Paper §2: a flow-controlled task "stops the current execution
  // immediately and will be scheduled in a later time". Park it on the
  // deadline queue - the worker goes straight back to the scheduler instead
  // of napping, and the sender loop re-submits the task once the retry
  // deadline passes (by which point the outbox it was waiting on has had
  // time to drain).
  stalls_c_->inc();
  log_event(obs::EventKind::kStallBegin, flowlet, tag);
  DeferredTask d;
  d.stall = true;
  d.flowlet = flowlet;
  d.tag = tag;
  d.begin = now();
  d.task = std::move(task);
  schedule_deferred(d.begin + kDeferRetry, std::move(d));
}

void NodeRuntime::schedule_deferred(TimePoint due, DeferredTask&& d) {
  {
    std::lock_guard<std::mutex> lock(defer_mu_);
    deferred_.emplace(due, std::move(d));
  }
  // Wake the sender (never while holding defer_mu_: the sender nests
  // defer_mu_ inside out_mu_) so it recomputes its wait deadline.
  {
    std::lock_guard<std::mutex> lock(out_mu_);
  }
  out_cv_.notify_one();
}

TimePoint NodeRuntime::next_deferred_deadline() {
  std::lock_guard<std::mutex> lock(defer_mu_);
  return deferred_.empty() ? TimePoint::max() : deferred_.begin()->first;
}

void NodeRuntime::drain_due_deferred() {
  const TimePoint t = now();
  std::vector<DeferredTask> due;
  {
    std::lock_guard<std::mutex> lock(defer_mu_);
    auto it = deferred_.begin();
    while (it != deferred_.end() && it->first <= t) {
      due.push_back(std::move(it->second));
      it = deferred_.erase(it);
    }
  }
  for (DeferredTask& d : due) {
    if (d.stall) {
      const Duration stalled = t - d.begin;
      stall_ns_c_->add(static_cast<uint64_t>(stalled.count()));
      stall_us_h_->observe(static_cast<uint64_t>(stalled.count() / 1000));
      obs::trace().record_span("flow.stall", "engine.flow", node_id(),
                               d.flowlet, d.tag, d.begin, t);
      // StallEnd is logged before the task is re-queued, so in every legal
      // log each stall interval of a (flowlet, tag) task closes before that
      // task can run again.
      log_event(obs::EventKind::kStallEnd, d.flowlet, d.tag);
    }
    submit_task(std::move(d.task));
  }
}

void NodeRuntime::worker_loop() {
  // Batched pop: one lock acquisition covers a run of items taken in queue
  // order, so per-sender FIFO survives. 32 units per wakeup amortize the
  // scheduler's per-item costs; the scheduler caps each batch at the
  // worker's fair share of the backlog, so idle workers get the rest.
  constexpr size_t kBatch = 32;
  std::vector<Scheduler::Work> batch;
  batch.reserve(kBatch);
  while (sched_.next_batch(&batch, kBatch) > 0) {
    for (Scheduler::Work& work : batch) {
      if (work.is_item) {
        if (work.item.is_control) {
          process_control(work.item);
        } else {
          process_bin(work.item);
        }
        // Drop the body now, not at batch end: if this is its last holder,
        // the bin's memory is freed at once.
        work.item.payload = net::Payload();
      } else {
        work.task();
        work.task = nullptr;  // release captures before the next blocking pop
      }
    }
    batch.clear();
  }
}

void NodeRuntime::process_bin(QueueItem& item) {
  auto job = current_job();
  if (!job) return;
  BinView view(item.payload.view());
  if (view.job_epoch() != job->epoch) return;
  const GraphEdge& edge = job->graph->edge(view.edge());
  internal::FlowletState& fs = *job->flowlets[edge.dst];

  // Cancelled job: drain the bin without processing it. The completion
  // bookkeeping below still runs so the shutdown cascade reaches every node.
  if (job_cancelled()) {
    log_event(obs::EventKind::kBinProcessed, edge.dst, 0);
    if (fs.stream_windowed) mark_bin_done(fs, item.bin_index);
    fs.pending_bins.fetch_sub(1);
    maybe_schedule_finish(edge.dst);
    return;
  }

  // Injected task crash: happens at task start, before any emission or state
  // mutation, so a retry redoes the bin cleanly. The retry path keeps the
  // flowlet's pending_bins reference - completion cannot race past a bin
  // that is merely waiting to be retried.
  if (should_crash_task(edge.dst, item.attempts)) {
    log_event(obs::EventKind::kTaskRetry, edge.dst, item.attempts + 1);
    retry_bin(std::move(item));
    return;
  }

  const auto records = static_cast<int64_t>(view.records());
  const char* task_name = fs.kind == FlowletKind::kMap ? "task.map"
                          : fs.kind == FlowletKind::kPartialReduce
                              ? "task.fold"
                              : "task.stage";
  const TimePoint t0 = now();
  // on_bin_message checked only the header. Over TCP a record cut short
  // comes from outside the process: every path keeps and accounts the
  // records before it (mapped, folded or staged), the worker logs the error
  // and drops the rest of the bin, and the completion bookkeeping below
  // still runs.
  try {
    obs::TraceSpan span(task_name, "engine.task", node_id(), edge.dst, records);
    switch (fs.kind) {
      case FlowletKind::kMap: {
        TaskContext ctx(this, job.get(), edge.dst);
        auto* map = static_cast<MapFlowlet*>(fs.instance.get());
        KvPair record;
        while (view.next(&record)) map->process(record, ctx);
        break;
      }
      case FlowletKind::kPartialReduce:
        fold_partial_bin(edge.dst, fs, view);
        break;
      case FlowletKind::kReduce:
        stage_reduce_bin(edge.dst, fs, view);
        break;
      case FlowletKind::kLoader:
        HLOG_ERROR << "bin routed to loader flowlet " << edge.dst;
        break;
    }
  } catch (const serde::DecodeError& e) {
    HLOG_ERROR << "node " << node_id() << " malformed bin from " << item.src
               << " for flowlet " << edge.dst << ": " << e.what();
  }
  const auto task_us = static_cast<uint64_t>((now() - t0).count() / 1000);
  task_us_h_->observe(task_us);
  if (fs.task_us != nullptr) fs.task_us->observe(task_us);
  // Log before the pending_bins decrement becomes visible: completion is
  // only reachable once pending_bins hits zero, so every kBinProcessed
  // event of a flowlet precedes its kFlowletComplete in the log.
  log_event(obs::EventKind::kBinProcessed, edge.dst, records);
  if (fs.stream_windowed) mark_bin_done(fs, item.bin_index);
  fs.pending_bins.fetch_sub(1);
  maybe_schedule_finish(edge.dst);
  // This completion may be the one that satisfies an armed watermark barrier.
  if (fs.stream_windowed) maybe_close_event_windows(edge.dst);
}

void NodeRuntime::process_control(const QueueItem& item) {
  auto job = current_job();
  if (!job) return;
  // on_control_message checked the bytes against this job's graph, so this
  // parse cannot throw; a message of an earlier job reads as nothing.
  const std::optional<FlowletId> flowlet =
      parse_complete(item.payload.view(), *job);
  if (!flowlet) return;

  // The completed flowlet is the *source*; each distinct downstream flowlet
  // gains one completed channel (per sending node).
  const GraphNode& src_node = job->graph->flowlet(*flowlet);
  std::vector<FlowletId> seen;
  for (EdgeId eid : src_node.out_edges) {
    const FlowletId dst = job->graph->edge(eid).dst;
    if (std::find(seen.begin(), seen.end(), dst) != seen.end()) continue;
    seen.push_back(dst);
    // Log before the channels_done increment becomes visible (same ordering
    // argument as kBinProcessed).
    log_event(obs::EventKind::kChannelComplete, dst,
              static_cast<int64_t>(item.src));
    job->flowlets[dst]->channels_done.fetch_add(1);
    maybe_schedule_finish(dst);
  }
}

// --- loader path -------------------------------------------------------------

void NodeRuntime::run_split_chunk(FlowletId loader, const InputSplit& split,
                                  uint64_t cursor, uint32_t attempt) {
  auto job = current_job();
  if (!job) return;

  // Cancelled job: abandon the split. The chunk chain is the split's only
  // live task, so the completion decrement fires exactly once here.
  if (job_cancelled()) {
    internal::FlowletState& cfs = *job->flowlets[loader];
    if (cfs.splits_outstanding.fetch_sub(1) == 1) {
      maybe_schedule_finish(loader);
    }
    return;
  }

  if (config_.flow_control_enabled && backpressured()) {
    // The split cursor identifies the parked task: the retry resumes exactly
    // where this invocation stopped.
    defer_task(loader, static_cast<int64_t>(cursor),
               [this, loader, split, cursor, attempt] {
                 run_split_chunk(loader, split, cursor, attempt);
               });
    return;
  }

  // Injected crash at chunk start (after the defer check, so parked tasks do
  // not consume crash slots): the cursor has not advanced, so the retry
  // reloads exactly the same chunk - loaders are pure functions of the
  // cursor.
  if (should_crash_task(loader, attempt)) {
    task_retries_c_->inc();
    log_event(obs::EventKind::kTaskRetry, loader, attempt + 1);
    // The backoff waits on the deferred queue, not on this worker thread.
    DeferredTask d;
    d.task = [this, loader, split, cursor, attempt] {
      run_split_chunk(loader, split, cursor, attempt + 1);
    };
    schedule_deferred(now() + retry_backoff(attempt), std::move(d));
    return;
  }

  internal::FlowletState& fs = *job->flowlets[loader];
  auto* ld = static_cast<LoaderFlowlet*>(fs.instance.get());
  uint64_t cur = cursor;
  bool more = false;
  const TimePoint t0 = now();
  {
    obs::TraceSpan span("task.load", "engine.task", node_id(), loader,
                        static_cast<int64_t>(cursor));
    TaskContext ctx(this, job.get(), loader);
    more = ld->load_chunk(split, &cur, ctx);
  }
  const auto chunk_us = static_cast<uint64_t>((now() - t0).count() / 1000);
  task_us_h_->observe(chunk_us);
  if (fs.task_us != nullptr) fs.task_us->observe(chunk_us);
  if (more) {
    submit_task([this, loader, split, cursor = cur] {
      run_split_chunk(loader, split, cursor);
    });
    return;
  }
  if (fs.splits_outstanding.fetch_sub(1) == 1) {
    maybe_schedule_finish(loader);
  }
}

// --- partial reduce ----------------------------------------------------------

void NodeRuntime::fold_partial_bin(FlowletId flowlet, internal::FlowletState& fs,
                                   BinView& bin) {
  auto* pr = static_cast<PartialReduceFlowlet*>(fs.instance.get());
  internal::PartialTable& table = *fs.table;
  const uint32_t num_stripes = static_cast<uint32_t>(table.stripes.size());

  // Fold record by record under the stripe lock, tallying in locals what the
  // epilogue accounts once per bin: each stripe's serialized-update gate
  // (batched cost model), engine.folds, and for a windowed flowlet the bytes
  // the table grew by (new keys plus accumulator growth), published with one
  // write per bin because every worker of every node shares that counter.
  // Windowed flowlets route in-band watermark punctuation around the table
  // (handled in the epilogue, outside any stripe lock). A bin cut short by a
  // malformed record keeps and accounts the records before it: the epilogue
  // runs, then the error propagates to process_bin.
  std::vector<uint64_t> per_stripe(num_stripes, 0);
  int64_t grown = 0;
  int64_t aligned = INT64_MIN;
  std::exception_ptr cut_short;
  try {
    KvPair record;
    while (bin.next(&record)) {
      if (fs.stream_windowed && pr->is_punctuation(record.key)) {
        const int64_t w = pr->on_punctuation(record.key, record.value);
        if (w > aligned) aligned = w;
        continue;
      }
      const uint64_t h = hash_bytes(record.key);
      const uint32_t si = stripe_of(h, num_stripes);
      internal::PartialTable::Stripe& stripe = table.stripes[si];
      {
        std::lock_guard<std::mutex> lock(stripe.mu);
        const size_t keys = stripe.acc.size();
        // Heterogeneous probe: no std::string key materialized per fold.
        std::string& acc = stripe.acc.find_or_insert(record.key, h);
        const size_t before = acc.size();
        pr->fold(record.key, record.value, acc);
        grown += static_cast<int64_t>(acc.size()) - static_cast<int64_t>(before);
        if (stripe.acc.size() != keys) {
          grown += static_cast<int64_t>(record.key.size());
        }
      }
      ++per_stripe[si];
    }
  } catch (const serde::DecodeError&) {
    cut_short = std::current_exception();
  }
  uint64_t folds = 0;
  for (uint32_t si = 0; si < num_stripes; ++si) {
    if (per_stripe[si] == 0) continue;
    folds += per_stripe[si];
    table.stripes[si].gate->charge(per_stripe[si]);
  }
  folds_c_->add(folds);
  if (fs.stream_windowed) end_window_bin(flowlet, fs, *pr, grown, aligned);
  if (cut_short) std::rethrow_exception(cut_short);
}

void NodeRuntime::end_window_bin(FlowletId flowlet, internal::FlowletState& fs,
                                 PartialReduceFlowlet& pr, int64_t grown,
                                 int64_t aligned) {
  // Publish the bin's table growth and log windows first opened by this bin,
  // then arm the close barrier if the operator watermark advanced.
  // kWindowOpen is logged before the bin's pending_bins decrement, and any
  // close covering these windows needs that decrement, so in every legal log
  // open precedes emit for the same end.
  std::vector<int64_t> opened;
  pr.on_bin_folded(grown, &opened);
  if (opened.empty() && aligned == INT64_MIN) return;
  std::lock_guard<std::mutex> lock(fs.wm_mu);
  for (const int64_t end : opened) {
    if (end > fs.max_open_end) fs.max_open_end = end;
    log_event(obs::EventKind::kWindowOpen, flowlet, end);
  }
  if (aligned > fs.armed_watermark && aligned > fs.closed_watermark) {
    fs.armed_watermark = aligned;
    // Channel FIFO guarantees every event covered by this watermark was
    // enqueued before the punctuation that carried it, so this snapshot
    // covers them all (plus possibly later bins - a late close is safe).
    fs.armed_target = fs.bins_enqueued.load();
    fs.armed_at = now();
    log_event(obs::EventKind::kWatermarkAdvance, flowlet, aligned);
    if (fs.max_open_end != INT64_MIN && aligned != INT64_MAX) {
      const int64_t lag = fs.max_open_end > aligned ? fs.max_open_end - aligned : 0;
      wm_lag_us_h_->observe(static_cast<uint64_t>(lag));
    }
  }
}

// --- reduce staging / firing ---------------------------------------------

void NodeRuntime::stage_reduce_bin(FlowletId flowlet, internal::FlowletState& fs,
                                   BinView& bin) {
  // Bucket the bin's records by sub-partition first, then stage each bucket
  // under a single lock acquisition. Bins carry hundreds of records, and the
  // per-record lock/unlock plus spill bookkeeping used to dominate the
  // shuffle receive path. Record views stay valid while `bin` is alive, and
  // each bucket is cleared once staged, so no view outlives the bin. A bin
  // cut short by a malformed record stages the records before it, then the
  // error propagates to process_bin.
  thread_local std::vector<std::vector<KvPair>> buckets(internal::kReduceStages);
  std::exception_ptr cut_short;
  try {
    KvPair record;
    while (bin.next(&record)) {
      buckets[stage_of(record.key)].push_back(record);
    }
  } catch (const serde::DecodeError&) {
    cut_short = std::current_exception();
  }

  for (uint32_t si = 0; si < internal::kReduceStages; ++si) {
    std::vector<KvPair>& bucket = buckets[si];
    if (bucket.empty()) continue;
    internal::ReduceStage& stage = *fs.stages[si];
    uint64_t batch_bytes = 0;
    for (const KvPair& r : bucket) {
      batch_bytes += r.key.size() + r.value.size() + 16;
    }
    uint64_t spill_bytes = 0;
    storage::SpillBatch spill;
    {
      std::lock_guard<std::mutex> lock(stage.mu);
      for (const KvPair& r : bucket) stage.runs.stage(r.key, r.value);
      stage.bytes += batch_bytes;
      staged_bytes_.fetch_add(batch_bytes);
      // Spill check per batch, not per record: the budget can overshoot by
      // at most one bin's worth of records.
      const uint64_t min_spill =
          config_.memory_budget_bytes / (4ull * internal::kReduceStages);
      if (staged_bytes_.load() > config_.memory_budget_bytes &&
          stage.bytes >= min_spill) {
        spill = stage.runs.take_batch(
            spill_path(flowlet, si, stage.runs.runs().size()));
        spill_bytes = stage.bytes;
        stage.bytes = 0;
      }
    }
    bucket.clear();
    if (!spill.empty()) {
      staged_bytes_.fetch_sub(spill_bytes);
      obs::TraceSpan span("spill.write", "engine.spill", node_id(), flowlet,
                          static_cast<int64_t>(spill_bytes));
      spill.write([this](storage::RunWriter& w) { write_spill_with_retry(w); });
      spill_runs_c_->inc();
      log_event(obs::EventKind::kSpill, flowlet,
                static_cast<int64_t>(spill_bytes));
    }
  }
  if (cut_short) std::rethrow_exception(cut_short);
}

void NodeRuntime::fire_reduce(FlowletId flowlet) {
  auto job = current_job();
  internal::FlowletState& fs = *job->flowlets[flowlet];
  fs.reduce_tasks_outstanding.store(internal::kReduceStages);
  for (uint32_t si = 0; si < internal::kReduceStages; ++si) {
    submit_task([this, flowlet, si] { run_reduce_stage(flowlet, si); });
  }
}

void NodeRuntime::run_reduce_stage(FlowletId flowlet, uint32_t stage_index,
                                   uint32_t attempt) {
  auto job = current_job();
  internal::FlowletState& fs = *job->flowlets[flowlet];

  // Injected crash at stage start: staged records and spill runs are still
  // intact (they are only consumed below), so the retry re-merges the same
  // inputs and emits identical output.
  if (should_crash_task(flowlet, attempt)) {
    task_retries_c_->inc();
    log_event(obs::EventKind::kTaskRetry, flowlet, attempt + 1);
    DeferredTask d;
    d.task = [this, flowlet, stage_index, attempt] {
      run_reduce_stage(flowlet, stage_index, attempt + 1);
    };
    schedule_deferred(now() + retry_backoff(attempt), std::move(d));
    return;
  }

  log_event(obs::EventKind::kReduceStageRun, flowlet,
            static_cast<int64_t>(stage_index));
  internal::ReduceStage& stage = *fs.stages[stage_index];
  auto* red = static_cast<ReduceFlowlet*>(fs.instance.get());

  // A cancelled job skips the merge but still releases staged memory,
  // deletes the spill runs and cascades, so the completion protocol finishes.
  const bool cancelled = job_cancelled();
  const TimePoint reduce_t0 = now();
  std::optional<obs::TraceSpan> reduce_span;
  if (!cancelled) {
    reduce_span.emplace("task.reduce", "engine.task", node_id(), flowlet,
                        static_cast<int64_t>(stage_index));
    // No staging lock needed: every bin was staged (upstream complete)
    // before the reduce fires. The merge yields same-key records in arrival
    // order, grouped by key for reduce().
    TaskContext ctx(this, job.get(), flowlet);
    auto merge = stage.runs.merge();
    merge_fan_in_h_->observe(merge.fan_in());
    storage::merge_groups(merge, [&](std::string_view key,
                                     const std::vector<std::string_view>& values) {
      red->reduce(key, values, ctx);
    });
  }

  // Release staged memory (the arena drops its chunks wholesale and
  // un-charges engine.arena_bytes) and delete the spill runs.
  staged_bytes_.fetch_sub(stage.bytes);
  stage.bytes = 0;
  stage.runs.clear();

  if (!cancelled) {
    const auto stage_us =
        static_cast<uint64_t>((now() - reduce_t0).count() / 1000);
    task_us_h_->observe(stage_us);
    if (fs.task_us != nullptr) fs.task_us->observe(stage_us);
  }
  if (fs.reduce_tasks_outstanding.fetch_sub(1) == 1) {
    submit_task([this, flowlet] { run_finish(flowlet); });
  }
}

// --- completion --------------------------------------------------------------

void NodeRuntime::maybe_schedule_finish(FlowletId flowlet) {
  auto job = current_job();
  if (!job) return;
  internal::FlowletState& fs = *job->flowlets[flowlet];
  if (fs.channels_done.load() < fs.channels_total) return;
  if (fs.pending_bins.load() != 0) return;
  if (fs.kind == FlowletKind::kLoader && fs.splits_outstanding.load() != 0) return;
  if (fs.finish_scheduled.exchange(true)) return;

  // Exactly once per (node, flowlet): the exchange above is the Ready gate.
  log_event(obs::EventKind::kFlowletReady, flowlet);

  if (fs.kind == FlowletKind::kReduce) {
    fire_reduce(flowlet);  // run_finish follows after the last stage task
  } else {
    submit_task([this, flowlet] { run_finish(flowlet); });
  }
}

void NodeRuntime::run_finish(FlowletId flowlet) {
  auto job = current_job();
  internal::FlowletState& fs = *job->flowlets[flowlet];
  obs::TraceSpan span("task.finish", "engine.task", node_id(), flowlet);

  const bool cancelled = job_cancelled();
  if (!cancelled) {
    TaskContext ctx(this, job.get(), flowlet);
    if (fs.kind == FlowletKind::kPartialReduce) {
      // Emit accumulated results before the user finish() hook (paper §2:
      // partial reduce outputs only on upstream completion). For a windowed
      // flowlet this is the still-open remainder - every window already
      // closed by a watermark was drained out of the table, so the union of
      // mid-stream closes and this final flush is exactly-once. wm_mu
      // serializes against a close still in flight.
      auto* pr = static_cast<PartialReduceFlowlet*>(fs.instance.get());
      std::unique_lock<std::mutex> wm_lock;
      if (fs.stream_windowed) {
        wm_lock = std::unique_lock<std::mutex>(fs.wm_mu);
      }
      std::vector<int64_t> ends;
      for (auto& stripe : fs.table->stripes) {
        std::lock_guard<std::mutex> lock(stripe.mu);
        for (auto& e : stripe.acc.entries()) {
          if (fs.stream_windowed) {
            const int64_t end = pr->window_end_of(e.key);
            if (end != INT64_MIN &&
                std::find(ends.begin(), ends.end(), end) == ends.end()) {
              ends.push_back(end);
            }
          }
          pr->emit_result(e.key, e.acc, ctx);
        }
        stripe.acc.clear();
      }
      // kFlowletReady already precedes these in the (node, flowlet) stream,
      // which is the ordering invariant finish-path emissions satisfy.
      for (const int64_t end : ends) {
        log_event(obs::EventKind::kWindowEmit, flowlet, end);
      }
      if (!ends.empty()) windows_emitted_c_->add(ends.size());
    }
    fs.instance->finish(ctx);
  }

  // Flush sender-side combine tables of this flowlet's combine out-edges
  // (after finish() so finish-time emissions are combined too).
  const GraphNode& gnode = job->graph->flowlet(flowlet);
  for (EdgeId eid : gnode.out_edges) {
    if (cancelled || !job->graph->edge(eid).options.combine) continue;
    internal::PartialTable& table = *fs.combine_tables.at(eid);
    for (uint32_t si = 0; si < table.stripes.size(); ++si) {
      flush_combine_stripe(*job, eid, si);
    }
  }

  flowlet_locally_complete(flowlet);
}

void NodeRuntime::flush_combine_stripe(internal::JobState& job, EdgeId edge_id,
                                       uint32_t stripe_index) {
  const GraphEdge& edge = job.graph->edge(edge_id);
  internal::PartialTable::Stripe& stripe =
      job.flowlets[edge.src]->combine_tables.at(edge_id)->stripes[stripe_index];

  // Move the whole table out under the lock (entries, slots, and the key
  // arena with its gauge charge travel together) and re-arm an empty one.
  FlatAccTable drained;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.acc.empty()) return;
    drained = std::move(stripe.acc);
    stripe.acc = FlatAccTable(arena_bytes_g_);
  }

  // Dense per-destination builders (one vector, no map nodes).
  const uint32_t nodes = engine_->cluster().size();
  std::vector<BinBuilder> builders(nodes);
  for (const auto& e : drained.entries()) {
    const NodeId dst = edge.options.partitioner
                           ? edge.options.partitioner(e.key, nodes) % nodes
                           : partition_of(e.key, nodes);
    BinBuilder& builder = builders[dst];
    if (!builder.is_open()) builder.open(job.epoch, edge_id);
    builder.add(e.key, e.acc);
    if (builder.payload_bytes() >= config_.bin_size_bytes) send_bin(dst, builder);
  }
  for (NodeId dst = 0; dst < nodes; ++dst) {
    if (!builders[dst].empty()) send_bin(dst, builders[dst]);
  }
}

void NodeRuntime::send_bin(uint32_t dst, BinBuilder& builder) {
  // The sealed bin becomes an immutable shared body: transport queues, the
  // retransmission slot and the receiving worker all reference these bytes,
  // never copy them, and the last of them to drop it frees it.
  auto bin = std::make_shared<const std::string>(builder.take());
  bins_c_->inc();
  bin_bytes_c_->add(bin->size());
  enqueue_out(dst, bin_type_, std::move(bin));
}

void NodeRuntime::flowlet_locally_complete(FlowletId flowlet) {
  auto job = current_job();
  internal::FlowletState& fs = *job->flowlets[flowlet];
  log_event(obs::EventKind::kFlowletComplete, flowlet);
  fs.complete.store(true);
  broadcast_complete(flowlet);
  const uint32_t done = job->flowlets_complete.fetch_add(1) + 1;
  if (done == job->flowlets.size() && !job->done_signaled.exchange(true)) {
    engine_->node_job_done(node_id());
  }
}

void NodeRuntime::broadcast_complete(FlowletId flowlet) {
  auto job = current_job();
  // Only a flowlet's downstream flowlets count its COMPLETE (process_control
  // walks the out-edges), so a sink sends none.
  const uint32_t destinations = job->graph->flowlet(flowlet).out_edges.empty()
                                    ? 0
                                    : engine_->cluster().size();
  log_event(obs::EventKind::kCompleteBroadcast, flowlet,
            static_cast<int64_t>(destinations));
  if (destinations == 0) return;
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(job->epoch);
  w.put_varint(kCtlComplete);
  w.put_varint(flowlet);
  // One shared body serves every destination: each enqueue copies a few
  // header bytes and bumps a refcount instead of duplicating the payload.
  const auto body = std::make_shared<const std::string>(buf.view());
  for (uint32_t n = 0; n < destinations; ++n) enqueue_out(n, control_type_, body);
}

// --- streaming -----------------------------------------------------------

void NodeRuntime::mark_bin_done(internal::FlowletState& fs, uint64_t index) {
  std::lock_guard<std::mutex> lock(fs.done_mu);
  uint64_t prefix = fs.done_prefix.load(std::memory_order_relaxed);
  if (index != prefix) {
    fs.done_out_of_order.insert(index);
    return;
  }
  ++prefix;
  for (auto it = fs.done_out_of_order.begin();
       it != fs.done_out_of_order.end() && *it == prefix;
       it = fs.done_out_of_order.erase(it)) {
    ++prefix;
  }
  fs.done_prefix.store(prefix, std::memory_order_release);
}

void NodeRuntime::maybe_close_event_windows(FlowletId flowlet) {
  auto job = current_job();
  if (!job) return;
  internal::FlowletState& fs = *job->flowlets[flowlet];
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(fs.wm_mu);
      if (fs.armed_watermark == INT64_MIN) return;
      // Prefix, not count: every bin enqueued before the arm must be done.
      // Out-of-order completions (parallel workers, crash-retry backoff) of
      // later bins must not stand in for a parked covered bin.
      if (fs.done_prefix.load(std::memory_order_acquire) < fs.armed_target) {
        return;
      }
    }
    // One closer at a time; a loser's armed state is re-checked by the
    // winner's loop after its close finishes.
    if (fs.close_running.exchange(true)) return;
    int64_t watermark = INT64_MIN;
    TimePoint armed_at{};
    {
      std::lock_guard<std::mutex> lock(fs.wm_mu);
      if (fs.armed_watermark != INT64_MIN &&
          fs.done_prefix.load(std::memory_order_acquire) >= fs.armed_target) {
        watermark = fs.armed_watermark;
        armed_at = fs.armed_at;
        fs.armed_watermark = INT64_MIN;
        if (watermark > fs.closed_watermark) fs.closed_watermark = watermark;
      }
    }
    if (watermark != INT64_MIN) close_event_windows(flowlet, watermark, armed_at);
    fs.close_running.store(false);
    // Loop: a newer watermark may have armed while this close ran.
  }
}

void NodeRuntime::close_event_windows(FlowletId flowlet, int64_t watermark,
                                      TimePoint armed_at) {
  auto job = current_job();
  if (!job) return;
  internal::FlowletState& fs = *job->flowlets[flowlet];
  auto* pr = static_cast<PartialReduceFlowlet*>(fs.instance.get());
  // wm_mu held for the whole close: the finish path takes it around its
  // final emission, so finish can never emit a stripe this close is about to
  // re-insert keepers into (which would lose them).
  std::lock_guard<std::mutex> wm_lock(fs.wm_mu);
  if (fs.complete.load() || fs.finish_scheduled.load() || job_cancelled()) {
    // The finish path owns (or will own) the remaining table contents.
    return;
  }
  TaskContext ctx(this, job.get(), flowlet);
  obs::TraceSpan span("task.window_close", "engine.task", node_id(), flowlet,
                      watermark == INT64_MAX ? -1 : watermark);
  std::vector<int64_t> ends;
  for (auto& stripe : fs.table->stripes) {
    FlatAccTable drained;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      bool any = false;
      for (const auto& e : stripe.acc.entries()) {
        const int64_t end = pr->window_end_of(e.key);
        if (end != INT64_MIN && end <= watermark) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      // Drain-and-reinsert under the stripe lock: FlatAccTable has no erase,
      // and releasing the lock between drain and reinsert would let a
      // concurrent fold insert a second accumulator for a kept key.
      drained = std::move(stripe.acc);
      stripe.acc = FlatAccTable(arena_bytes_g_);
      for (auto& e : drained.entries()) {
        const int64_t end = pr->window_end_of(e.key);
        if (end != INT64_MIN && end <= watermark) continue;  // closes below
        stripe.acc.find_or_insert(e.key, e.hash) = std::move(e.acc);
      }
    }
    // Emit outside the stripe lock; `drained` keeps the key arena alive.
    for (auto& e : drained.entries()) {
      const int64_t end = pr->window_end_of(e.key);
      if (end == INT64_MIN || end > watermark) continue;
      pr->emit_result(e.key, e.acc, ctx);
      if (std::find(ends.begin(), ends.end(), end) == ends.end()) {
        ends.push_back(end);
      }
    }
  }
  for (const int64_t end : ends) {
    log_event(obs::EventKind::kWindowEmit, flowlet, end);
  }
  if (!ends.empty()) {
    windows_emitted_c_->add(ends.size());
    window_emit_us_h_->observe(
        static_cast<uint64_t>((now() - armed_at).count() / 1000));
  }
}

// --- fault recovery ----------------------------------------------------------

bool NodeRuntime::should_crash_task(FlowletId flowlet, uint32_t attempt) {
  fault::FaultInjector* injector = config_.fault_injector;
  if (injector == nullptr) return false;
  if (!injector->on_task_start(node_id(), flowlet)) return false;
  if (attempt >= injector->plan().max_task_retries) {
    // Past the retry bound the task proceeds anyway (logged): dropping the
    // bin would silently lose data, which no retry policy may do.
    HLOG_ERROR << "node " << node_id() << " flowlet " << flowlet << " crashed "
               << attempt << " times; executing despite injected crash";
    return false;
  }
  return true;
}

Duration NodeRuntime::retry_backoff(uint32_t attempt) const {
  Duration base = millis(1);
  Duration cap = millis(64);
  if (config_.fault_injector != nullptr) {
    base = config_.fault_injector->plan().retry_backoff;
    cap = config_.fault_injector->plan().retry_backoff_cap;
  }
  return backoff_after(base, cap, attempt);
}

void NodeRuntime::retry_bin(QueueItem&& item) {
  task_retries_c_->inc();
  const Duration nap = retry_backoff(item.attempts);
  retry_backoff_us_h_->observe(
      static_cast<uint64_t>(nap.count() / 1000));
  ++item.attempts;
  // Park the bin on the deferred queue for the (bounded) backoff - no worker
  // naps - then push it back WITHOUT the capacity wait: blocking there could
  // deadlock against the delivery thread, and the item's bytes re-enter the
  // shared budget via the forced push.
  DeferredTask d;
  d.task = [this, item = std::move(item)]() mutable {
    sched_.push_bin(std::move(item), /*force=*/true);
  };
  schedule_deferred(now() + nap, std::move(d));
}

void NodeRuntime::write_spill_with_retry(storage::RunWriter& writer) {
  const uint32_t max_retries = config_.fault_injector != nullptr
                                   ? config_.fault_injector->plan().max_write_retries
                                   : 0;
  for (uint32_t attempt = 0;; ++attempt) {
    Result<uint64_t> written = writer.finish();
    if (written.ok()) {
      spills_c_->inc();
      spill_bytes_c_->add(written.value());
      return;
    }
    if (attempt >= max_retries) {
      // Persistent injected failure: fall back to the infallible write so the
      // job still completes with correct output (and say so loudly).
      HLOG_ERROR << "node " << node_id() << " spill write failed "
                 << (attempt + 1) << " times (" << written.status().ToString()
                 << "); forcing unchecked write";
      const uint64_t bytes = writer.close();
      spills_c_->inc();
      spill_bytes_c_->add(bytes);
      return;
    }
    spill_retries_c_->inc();
    std::this_thread::sleep_for(retry_backoff(attempt));
  }
}

// --- egress --------------------------------------------------------------

void NodeRuntime::enqueue_out(uint32_t dst, uint32_t type,
                              std::shared_ptr<const std::string> body) {
  // Reliable shuffle: wrap engine payloads destined for a *remote* node in a
  // sequence-numbered frame and remember it for retransmission until the
  // cumulative ack passes it. Local traffic is never faulted (the transport
  // guarantees this), so it skips the frame overhead entirely.
  if (reliable() && dst != node_id()) {
    SendChannel& ch = send_channels_.at(dst);

    // The frame is head + shared body: the head carries the seq/ack header
    // (varint seq | varint type | varint len), the body is the sealed bin
    // itself. Live send, outbox, and retransmission slot all
    // reference the same bytes.
    ByteBuffer buf;
    serde::Writer w(buf);
    uint64_t seq = 0;
    net::Payload frame;
    {
      std::lock_guard<std::mutex> lock(ch.mu);
      seq = ch.next_seq++;
      w.put_varint(seq);
      w.put_varint(type);
      w.put_varint(body->size());
      frame = net::Payload::with_body(std::string(buf.view()), std::move(body));
      SendChannel::Unacked& u = ch.unacked[seq];
      u.frame = frame;
      // Armed for real by the sender thread once the frame leaves the node;
      // until then the frame is in our own outbox and cannot be "lost".
      u.next_resend = TimePoint::max();
      u.attempts = 0;
      frames_sent_c_->inc();
      obs::trace().record_instant("shuffle.send", "engine.shuffle", node_id(),
                                  -1, static_cast<int64_t>(seq));
    }
    unacked_frames_g_->inc();
    raw_enqueue_out(dst, frame_type_, std::move(frame), seq, /*is_frame=*/true);
    return;
  }
  if (type == bin_type_ && dst != node_id()) {
    obs::trace().record_instant("shuffle.send", "engine.shuffle", node_id(),
                                -1, static_cast<int64_t>(body->size()));
  }
  raw_enqueue_out(dst, type, net::Payload::with_body(std::string(), std::move(body)));
}

void NodeRuntime::raw_enqueue_out(uint32_t dst, uint32_t type,
                                  net::Payload payload, uint64_t frame_seq,
                                  bool is_frame) {
  outbox_bytes_.fetch_add(payload.size());
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    // Acks jump the queue: they are tiny, cumulative (reordering them ahead
    // of data is harmless), and a sender waiting behind megabytes of queued
    // bins would retransmit frames the receiver already holds.
    if (type == ack_type_) {
      outbox_.push_front(OutMsg{dst, type, std::move(payload), frame_seq, is_frame});
    } else {
      outbox_.push_back(OutMsg{dst, type, std::move(payload), frame_seq, is_frame});
    }
  }
  out_cv_.notify_one();
}

void NodeRuntime::sender_loop() {
  // The sender is the node's timer thread as well as its egress drain: with
  // the reliable layer on it wakes periodically to re-push unacked frames,
  // and in all modes it wakes at the earliest deferred-task deadline to move
  // parked tasks (flow-control stalls, crash-retry backoffs) back onto the
  // scheduler - no worker thread ever sleeps a backoff away.
  const bool rel = reliable();
  TimePoint next_check = now() + resend_check_every();
  for (;;) {
    OutMsg msg;
    bool have = false;
    {
      std::unique_lock<std::mutex> lock(out_mu_);
      while (!stopping_.load() && outbox_.empty()) {
        // Lock order: out_mu_ then defer_mu_ (schedule_deferred releases
        // defer_mu_ before notifying out_cv_, so there is no inversion).
        TimePoint wake = next_deferred_deadline();
        if (rel) wake = std::min(wake, next_check);
        if (wake == TimePoint::max()) {
          out_cv_.wait(lock);
        } else if (out_cv_.wait_until(lock, wake) == std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_.load() && outbox_.empty()) return;
      if (!outbox_.empty()) {
        msg = std::move(outbox_.front());
        outbox_.pop_front();
        have = true;
      }
    }
    drain_due_deferred();
    if (have) {
      const uint64_t size = msg.payload.size();
      // The frame's seq was stamped at enqueue; no payload re-parse here.
      const uint64_t frame_seq = msg.frame_seq;
      const bool is_frame = rel && msg.is_frame;
      node_->router().endpoint()->send(msg.dst, msg.type, std::move(msg.payload));
      outbox_bytes_.fetch_sub(size);
      if (is_frame) {
        // Arm (or re-arm) the retransmission timer only now that the frame
        // has actually left the node: send() can block for a long time on
        // outbox drain order, NIC serialization, and the receiver's bounded
        // ingress, and none of that time is evidence of loss.
        SendChannel& ch = send_channels_.at(msg.dst);
        std::lock_guard<std::mutex> lock(ch.mu);
        auto it = ch.unacked.find(frame_seq);
        if (it != ch.unacked.end()) {
          it->second.next_resend = now() + resend_timeout(it->second.attempts);
        }
      }
    }
    if (rel && now() >= next_check) {
      resend_due_frames();
      next_check = now() + resend_check_every();
    }
  }
}

Duration NodeRuntime::resend_timeout(uint32_t attempts) const {
  const Duration base = config_.fault_injector != nullptr
                            ? config_.fault_injector->plan().resend_after
                            : millis(150);
  return backoff_after(base, base * 16, attempts);
}

Duration NodeRuntime::resend_check_every() const {
  return std::max<Duration>(resend_timeout(0) / 4, millis(5));
}

void NodeRuntime::resend_due_frames() {
  const TimePoint t = now();
  const uint32_t max_attempts =
      config_.fault_injector != nullptr
          ? config_.fault_injector->plan().max_resend_attempts
          : 30;
  for (uint32_t dst = 0; dst < send_channels_.size(); ++dst) {
    SendChannel& ch = send_channels_[dst];
    // A re-enqueued frame is a Payload copy: a few header bytes plus a
    // refcount bump on the shared body. The bin bytes are never re-copied
    // for retransmission.
    std::vector<std::pair<uint64_t, net::Payload>> due;
    uint64_t lost = 0;
    {
      std::lock_guard<std::mutex> lock(ch.mu);
      for (auto it = ch.unacked.begin(); it != ch.unacked.end();) {
        SendChannel::Unacked& u = it->second;
        if (u.next_resend > t) {
          ++it;
          continue;
        }
        if (u.attempts >= max_attempts) {
          HLOG_ERROR << "node " << node_id() << " frame seq " << it->first
                     << " to node " << dst << " unacked after " << u.attempts
                     << " resends; giving up";
          ++lost;
          it = ch.unacked.erase(it);
          continue;
        }
        ++u.attempts;
        u.next_resend = t + resend_timeout(u.attempts);
        due.emplace_back(it->first, u.frame);
        ++it;
      }
    }
    if (lost != 0) {
      frames_lost_c_->add(lost);
      unacked_frames_g_->sub(static_cast<int64_t>(lost));
    }
    for (auto& [seq, frame] : due) {
      resends_c_->inc();
      obs::trace().record_instant("shuffle.resend", "engine.shuffle",
                                  node_id(), -1,
                                  static_cast<int64_t>(frame.size()));
      raw_enqueue_out(dst, frame_type_, std::move(frame), seq, /*is_frame=*/true);
    }
  }
}

bool NodeRuntime::backpressured() const {
  return outbox_bytes_.load(std::memory_order_relaxed) >
         config_.flow_control_high_bytes;
}

std::string NodeRuntime::spill_path(FlowletId flowlet, uint32_t stage,
                                    uint64_t n) const {
  auto job = current_job();
  return "engine/spill/l" + std::to_string(config_.lane) + "/e" +
         std::to_string(job ? job->epoch : 0) + "/f" + std::to_string(flowlet) +
         "/s" + std::to_string(stage) + "/r" + std::to_string(n);
}

}  // namespace hamr::engine

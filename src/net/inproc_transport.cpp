#include "net/inproc_transport.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/fault.h"
#include "obs/trace.h"

namespace hamr::net {

InProcTransport::InProcTransport(uint32_t num_nodes, NetConfig config,
                                 std::vector<Metrics*> node_metrics)
    : config_(config), metrics_(std::move(node_metrics)) {
  nodes_.reserve(num_nodes);
  endpoints_.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeState>());
    endpoints_.push_back(std::make_unique<EndpointImpl>(this, i));
  }
  if (metrics_.empty()) metrics_.assign(num_nodes, nullptr);
}

InProcTransport::~InProcTransport() { stop(); }

Endpoint* InProcTransport::endpoint(NodeId node) { return endpoints_.at(node).get(); }

void InProcTransport::set_metrics(std::vector<Metrics*> node_metrics) {
  if (node_metrics.size() == nodes_.size()) metrics_ = std::move(node_metrics);
}

void InProcTransport::start() {
  if (started_) return;
  started_ = true;
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->delivery_thread = std::thread([this, i] { delivery_loop(i); });
  }
}

void InProcTransport::stop() {
  stopping_.store(true);
  for (auto& node : nodes_) {
    {
      std::lock_guard<std::mutex> lock(node->mu);
      node->ingress_ready.notify_all();
      node->ingress_space.notify_all();
    }
    if (node->delivery_thread.joinable()) node->delivery_thread.join();
  }
}

void InProcTransport::do_send(NodeId src, NodeId dst, uint32_t type,
                              Payload payload) {
  const uint64_t size = payload.size();
  const bool local = src == dst;

  // Fault injection (chaos testing): the injector may drop the message on
  // the modeled wire, deliver it twice, or add in-network delay. Local
  // traffic never crosses the fabric and is never faulted.
  uint32_t copies = 1;
  Duration fault_delay = Duration::zero();
  if (fault::FaultInjector* fi = fault_injector_.load(std::memory_order_acquire);
      fi != nullptr && !local) {
    const fault::MessageFaultResult f = fi->on_message(src, dst, type);
    switch (f.action) {
      case fault::MessageFault::kDrop:
        if (Metrics* m = metrics_[src]; m != nullptr) {
          m->counter("net.fault_dropped")->inc();
        }
        obs::trace().record_instant("net.fault_drop", "net", src, -1,
                                    static_cast<int64_t>(type));
        return;
      case fault::MessageFault::kDuplicate:
        copies = 2;
        break;
      case fault::MessageFault::kDelay:
        fault_delay = f.delay;
        break;
      case fault::MessageFault::kNone:
        break;
    }
  }

  const bool model = config_.enabled && !local;
  const uint64_t billed = std::max<uint64_t>(size, config_.min_message_bytes);
  const Duration wire_time =
      model ? from_seconds(static_cast<double>(billed) / config_.bandwidth_bytes_per_sec)
            : Duration::zero();

  TimePoint tx_end = now();
  if (model) {
    NodeState& s = *nodes_[src];
    std::lock_guard<std::mutex> lock(s.tx_mu);
    const TimePoint tx_start = std::max(now(), s.tx_busy_until);
    tx_end = tx_start + wire_time;
    s.tx_busy_until = tx_end;
  }

  NodeState& d = *nodes_[dst];
  for (uint32_t copy = 0; copy < copies; ++copy) {
    // A duplicate copies the tiny head and bumps the shared-body refcount;
    // the body bytes are not re-copied.
    Payload enqueue_payload =
        copy + 1 < copies ? payload : std::move(payload);
    const TimePoint wait_t0 = now();
    std::unique_lock<std::mutex> lock(d.mu);
    // Local sends and priority (RPC-response) traffic bypass the ingress
    // bound; see is_priority_type() for the deadlock-freedom argument.
    d.ingress_space.wait(lock, [&] {
      return stopping_.load() || local || is_priority_type(type) ||
             d.queued_bytes + size <= config_.ingress_capacity_bytes ||
             d.queue.empty();  // never refuse when empty (oversized message)
    });
    if (stopping_.load()) return;
    // Sender-side stall on the receiver's bounded ingress: the far end of the
    // engine's backpressure chain, surfaced per sending node.
    const Duration ingress_wait = now() - wait_t0;
    if (!local && ingress_wait >= micros(100)) {
      if (Metrics* m = metrics_[src]; m != nullptr) {
        m->counter("net.ingress_wait_ns")
            ->add(static_cast<uint64_t>(ingress_wait.count()));
        m->histogram("net.ingress_wait_us")
            ->observe(static_cast<uint64_t>(ingress_wait.count() / 1000));
      }
    }

    TimePoint deliver_at;
    if (model) {
      const TimePoint arrival = tx_end + config_.latency;
      const TimePoint rx_start = std::max(arrival, d.rx_busy_until);
      deliver_at = rx_start + wire_time;
      d.rx_busy_until = deliver_at;
      deliver_at += fault_delay;  // in-network delay: holds rx slot time only
    } else {
      deliver_at = now() + fault_delay;
    }
    d.queue.push(Pending{deliver_at, seq_.fetch_add(1), type, src,
                         std::move(enqueue_payload), billed});
    d.queued_bytes += size;
    if (Metrics* m = metrics_[dst]; m != nullptr) {
      m->gauge("net.ingress_queued_bytes")
          ->set(static_cast<int64_t>(d.queued_bytes));
    }
    d.ingress_ready.notify_one();
  }

  if (Metrics* m = metrics_[src]; m != nullptr && !local) {
    m->counter("net.tx_bytes")->add(size);
    m->counter("net.tx_msgs")->inc();
  }
  if (Metrics* m = metrics_[dst]; m != nullptr && !local) {
    m->counter("net.rx_bytes")->add(size * copies);
    m->counter("net.rx_msgs")->add(copies);
  }
}

void InProcTransport::delivery_loop(NodeId node) {
  NodeState& s = *nodes_[node];
  for (;;) {
    Pending item;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.ingress_ready.wait(lock, [&] { return stopping_.load() || !s.queue.empty(); });
      if (stopping_.load()) return;
      const TimePoint at = s.queue.top().deliver_at;
      if (at > now()) {
        // Wait until the modeled arrival time, shutdown, or the arrival of a
        // message due earlier (possible when fault injection delays some
        // messages: deliver_at is no longer monotone per queue pop).
        s.ingress_ready.wait_until(lock, at, [&] {
          return stopping_.load() ||
                 (!s.queue.empty() && s.queue.top().deliver_at < at);
        });
        if (stopping_.load()) return;
        if (s.queue.empty()) continue;
        if (s.queue.top().deliver_at > now()) continue;  // spurious wake; re-wait
      }
      // const_cast: priority_queue exposes only const top(); the element is
      // removed immediately after the move so the heap order is unaffected.
      item = std::move(const_cast<Pending&>(s.queue.top()));
      s.queue.pop();
      s.queued_bytes -= item.payload.size();
      if (Metrics* m = metrics_[node]; m != nullptr) {
        m->gauge("net.ingress_queued_bytes")
            ->set(static_cast<int64_t>(s.queued_bytes));
      }
      s.ingress_space.notify_all();
    }
    if (s.handler) {
      obs::TraceSpan span("net.rx", "net", node, -1,
                          static_cast<int64_t>(item.type));
      s.handler(Message{item.type, item.src, std::move(item.payload)});
    } else {
      HLOG_WARN << "node " << node << " dropped message type " << item.type
                << " (no handler)";
    }
  }
}

}  // namespace hamr::net

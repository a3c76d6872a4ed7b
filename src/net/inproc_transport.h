// In-process transport fabric with a network cost model.
//
// Models, per message: per-link propagation latency, sender-NIC and
// receiver-NIC serialization at the configured bandwidth, and a bounded
// receiver ingress buffer. The delivery thread for a node waits until each
// message's modeled arrival time before invoking the handler, so modeled
// network time overlaps with real compute time across nodes just as it would
// on a physical cluster. FIFO order per (src,dst) channel is guaranteed for
// messages sent from a single thread (the engine sends through one sender
// thread per node, which is what the completion protocol relies on).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/message.h"

namespace hamr::fault {
class FaultInjector;
}  // namespace hamr::fault

namespace hamr::net {

struct NetConfig {
  // Per-NIC bandwidth, bytes/second. Default approximates a scaled-down
  // cluster interconnect (the paper used FDR InfiniBand; we scale everything
  // down together, see DESIGN.md).
  double bandwidth_bytes_per_sec = 256.0 * 1024 * 1024;
  Duration latency = micros(100);
  // Ingress buffer per node, in bytes. Senders block beyond this.
  uint64_t ingress_capacity_bytes = 8ull * 1024 * 1024;
  // Bytes below which a message is billed as this size (framing floor).
  uint64_t min_message_bytes = 256;
  bool enabled = true;  // when false: zero latency/bandwidth cost
};

class InProcTransport {
 public:
  InProcTransport(uint32_t num_nodes, NetConfig config,
                  std::vector<Metrics*> node_metrics = {});
  ~InProcTransport();

  InProcTransport(const InProcTransport&) = delete;
  InProcTransport& operator=(const InProcTransport&) = delete;

  Endpoint* endpoint(NodeId node);

  // Optional per-node metrics sinks for net.tx/rx counters. Must be called
  // before start() (two-phase bring-up: nodes are built after the fabric).
  void set_metrics(std::vector<Metrics*> node_metrics);

  // Attaches a fault injector (not owned; may be null to detach). Every
  // subsequent send of a faultable message type consults it for
  // drop/duplicate/delay. Safe to call while the fabric is running.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  // Begins delivery. Handlers for every endpoint must already be set.
  void start();

  // Stops delivery threads. Pending undelivered messages are dropped; call
  // only after the layers above have quiesced. Idempotent.
  void stop();

 private:
  // Queued messages keep the segmented Payload (shared bin bodies stay
  // shared while waiting in the ingress queue) and reach the handler as is.
  struct Pending {
    TimePoint deliver_at;
    uint64_t seq;
    uint32_t type;
    NodeId src;
    Payload payload;
    uint64_t billed_bytes;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  struct NodeState {
    // Ingress side (receiver NIC + buffer).
    std::mutex mu;
    std::condition_variable ingress_ready;   // delivery thread waits
    std::condition_variable ingress_space;   // senders wait
    std::priority_queue<Pending, std::vector<Pending>, PendingLater> queue;
    uint64_t queued_bytes = 0;
    TimePoint rx_busy_until{};
    MessageHandler handler;
    std::thread delivery_thread;
    // Egress side (sender NIC), separate lock to avoid lock coupling.
    std::mutex tx_mu;
    TimePoint tx_busy_until{};
  };

  class EndpointImpl : public Endpoint {
   public:
    EndpointImpl(InProcTransport* fabric, NodeId id) : fabric_(fabric), id_(id) {}
    void send(NodeId dst, uint32_t type, Payload payload) override {
      fabric_->do_send(id_, dst, type, std::move(payload));
    }
    void set_handler(MessageHandler handler) override {
      fabric_->nodes_[id_]->handler = std::move(handler);
    }
    NodeId node_id() const override { return id_; }
    uint32_t cluster_size() const override {
      return static_cast<uint32_t>(fabric_->nodes_.size());
    }

   private:
    InProcTransport* fabric_;
    NodeId id_;
  };

  void do_send(NodeId src, NodeId dst, uint32_t type, Payload payload);
  void delivery_loop(NodeId node);

  NetConfig config_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::unique_ptr<EndpointImpl>> endpoints_;
  std::vector<Metrics*> metrics_;
  std::atomic<fault::FaultInjector*> fault_injector_{nullptr};
  std::atomic<uint64_t> seq_{0};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace hamr::net

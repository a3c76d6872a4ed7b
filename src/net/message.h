// Wire-level message and the transport abstraction.
//
// All inter-node communication in the system - shuffle bins, completion
// control messages, RPC envelopes, DFS block transfers - travels as Messages
// through a Transport. Two implementations exist:
//   * InProcTransport - in-process fabric with a calibrated latency/bandwidth
//     cost model (the default for the simulated cluster), and
//   * TcpTransport    - real loopback TCP sockets with length-prefixed
//     framing (proves the stack end-to-end; used by tests).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/payload.h"

namespace hamr::net {

using NodeId = uint32_t;

struct Message {
  uint32_t type = 0;  // application-defined discriminator
  NodeId src = 0;
  // Delivered as sent: a shared bin body reaches the handler uncopied.
  Payload payload;
};

// Delivery callback. Invoked on a transport-owned delivery thread, one
// message at a time per destination node (per-destination serial order, and
// FIFO per (src,dst) channel - the engine's completion protocol relies on
// this, and so does event-time streaming: watermark punctuation rides the
// engine bin channel behind the events it covers, and the reliable shuffle
// restores this FIFO under drops/reorder, so punctuation arrival proves the
// covered data arrived). The handler may block; blocking applies
// backpressure to senders.
using MessageHandler = std::function<void(Message&&)>;

// One node's port into a transport fabric.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  // Sends to `dst`. May block when the destination's ingress buffer is full
  // (backpressure). Sending to self is allowed and free of network cost.
  // The payload may carry a shared body segment (see payload.h); transports
  // forward the view without copying the body bytes.
  virtual void send(NodeId dst, uint32_t type, Payload payload) = 0;

  // Must be called before the fabric starts delivering.
  virtual void set_handler(MessageHandler handler) = 0;

  virtual NodeId node_id() const = 0;
  virtual uint32_t cluster_size() const = 0;
};

// Message-type registry: every subsystem claims a distinct id so a single
// fabric can carry them all (collisions are caught by the Router).
//
// Engine executor lanes: the job service multiplexes several engine
// instances ("lanes") over one fabric by giving lane L the four consecutive
// type ids starting at kEngineLaneBase + kEngineLaneStride * L. Lane 0 is
// the classic single-engine layout (kEngineBin..kEngineAck); the reserved
// range is [16, 16 + 4 * kMaxEngineLanes) = [16, 80).
namespace msg_type {
inline constexpr uint32_t kRpcRequest = 1;
inline constexpr uint32_t kRpcResponse = 2;
inline constexpr uint32_t kEngineLaneBase = 16;
inline constexpr uint32_t kEngineLaneStride = 4;
inline constexpr uint32_t kMaxEngineLanes = 16;
inline constexpr uint32_t engine_bin(uint32_t lane) {
  return kEngineLaneBase + kEngineLaneStride * lane + 0;
}
inline constexpr uint32_t engine_control(uint32_t lane) {
  return kEngineLaneBase + kEngineLaneStride * lane + 1;
}
// Reliable engine channel (fault-tolerant shuffle): a frame wraps a bin or
// control payload with a per-(src,dst) sequence number; acks are cumulative.
inline constexpr uint32_t engine_frame(uint32_t lane) {
  return kEngineLaneBase + kEngineLaneStride * lane + 2;
}
inline constexpr uint32_t engine_ack(uint32_t lane) {
  return kEngineLaneBase + kEngineLaneStride * lane + 3;
}
inline constexpr uint32_t kEngineBin = engine_bin(0);
inline constexpr uint32_t kEngineControl = engine_control(0);
inline constexpr uint32_t kEngineFrame = engine_frame(0);
inline constexpr uint32_t kEngineAck = engine_ack(0);
}  // namespace msg_type

// RPC responses ride a priority lane: they are the back-edges that unblock
// waiting callers, so they must never block behind a full ingress buffer -
// otherwise inline handlers on two nodes can deadlock in a send cycle. Their
// volume is naturally bounded by the number of outstanding requests.
inline bool is_priority_type(uint32_t type) {
  return type == msg_type::kRpcResponse;
}

}  // namespace hamr::net

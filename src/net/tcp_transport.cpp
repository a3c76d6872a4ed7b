#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>

#include "common/logging.h"

namespace hamr::net {

namespace {

// Multi-MB service frames (job submissions, result payloads) routinely make
// send()/recv() return short on loopback, and either call can land EINTR;
// both loops below therefore retry until exactly `len` bytes moved and treat
// only real errors / EOF as fatal.

// Writes exactly `len` bytes; returns false on error/EOF.
bool write_all(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Reads exactly `len` bytes; returns false on error/EOF.
bool read_all(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Sanity cap on a frame's declared payload size: a corrupted or misframed
// header must not translate into a multi-GB allocation on the receiver.
constexpr uint32_t kMaxFramePayload = 256u * 1024 * 1024;

}  // namespace

struct TcpTransport::NodeState {
  // Atomic because stop() retires the fd concurrently with accept_loop
  // reading it; stop() claims ownership of the close via exchange(-1).
  std::atomic<int> listen_fd{-1};
  uint16_t port = 0;
  MessageHandler handler;
  std::thread accept_thread;
  std::vector<std::thread> reader_threads;
  std::mutex readers_mu;
  // Outgoing connections, keyed by destination; one connection per pair
  // direction, writes serialized by conn_mu.
  std::mutex conn_mu;
  std::map<NodeId, int> conns;
};

TcpTransport::TcpTransport(uint32_t num_nodes) {
  nodes_.reserve(num_nodes);
  endpoints_.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    auto state = std::make_unique<NodeState>();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    int opt = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &opt, sizeof(opt));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // OS-assigned
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("bind() failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    state->port = ntohs(addr.sin_port);
    if (::listen(fd, 64) != 0) throw std::runtime_error("listen() failed");
    state->listen_fd.store(fd);
    nodes_.push_back(std::move(state));
    endpoints_.push_back(std::make_unique<EndpointImpl>(this, i));
  }
}

TcpTransport::~TcpTransport() { stop(); }

Endpoint* TcpTransport::endpoint(NodeId node) { return endpoints_.at(node).get(); }

uint16_t TcpTransport::port_of(NodeId node) const { return nodes_.at(node)->port; }

void TcpTransport::start() {
  if (started_) return;
  started_ = true;
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->accept_thread = std::thread([this, i] { accept_loop(i); });
  }
}

void TcpTransport::stop() {
  if (!started_) return;
  if (stopping_.exchange(true)) return;
  for (auto& node : nodes_) {
    // Closing the listen fd unblocks accept(); closing connections unblocks
    // the reader threads.
    const int listen_fd = node->listen_fd.exchange(-1);
    if (listen_fd >= 0) {
      ::shutdown(listen_fd, SHUT_RDWR);
      ::close(listen_fd);
    }
    {
      std::lock_guard<std::mutex> lock(node->conn_mu);
      for (auto& [dst, fd] : node->conns) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
      }
      node->conns.clear();
    }
  }
  for (auto& node : nodes_) {
    if (node->accept_thread.joinable()) node->accept_thread.join();
    std::lock_guard<std::mutex> lock(node->readers_mu);
    for (auto& t : node->reader_threads) {
      if (t.joinable()) t.join();
    }
    node->reader_threads.clear();
  }
}

void TcpTransport::accept_loop(NodeId node) {
  NodeState& s = *nodes_[node];
  const int listen_fd = s.listen_fd.load();
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // listen socket closed: shutting down
    int opt = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &opt, sizeof(opt));
    std::lock_guard<std::mutex> lock(s.readers_mu);
    s.reader_threads.emplace_back([this, node, fd] { reader_loop(node, fd); });
  }
}

void TcpTransport::reader_loop(NodeId node, int fd) {
  NodeState& s = *nodes_[node];
  for (;;) {
    uint32_t header[3];  // payload_len, type, src
    if (!read_all(fd, header, sizeof(header))) break;
    if (header[0] > kMaxFramePayload) {
      // Desynchronized or corrupt stream: drop the connection (the peer
      // reconnects) rather than trust the length.
      HLOG_ERROR << "tcp node " << node << " dropping connection: frame of "
                 << header[0] << " bytes exceeds cap " << kMaxFramePayload;
      break;
    }
    // The frame's bytes become the message's shared body, so a reader can
    // slice into them (an engine frame unwraps to a sub-slice) uncopied.
    std::string bytes(header[0], '\0');
    if (header[0] > 0 && !read_all(fd, bytes.data(), header[0])) break;
    if (s.handler) {
      s.handler(Message{header[1], header[2],
                        Payload::with_body(std::string(),
                                           std::make_shared<const std::string>(
                                               std::move(bytes)))});
    }
  }
  ::close(fd);
}

int TcpTransport::connect_to(NodeId dst) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int opt = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &opt, sizeof(opt));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(nodes_[dst]->port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Status TcpTransport::send_frame(int fd, uint32_t type, NodeId src,
                                const Payload& payload) {
  // The payload's segments (head, shared body view) go to the socket in
  // sequence - no contiguous copy is ever materialized on the send side.
  uint32_t header[3] = {static_cast<uint32_t>(payload.size()), type, src};
  if (!write_all(fd, header, sizeof(header))) return Status::Unavailable("write header");
  const std::string& head = payload.head();
  if (!head.empty() && !write_all(fd, head.data(), head.size())) {
    return Status::Unavailable("write payload");
  }
  const std::string_view body = payload.body_view();
  if (!body.empty() && !write_all(fd, body.data(), body.size())) {
    return Status::Unavailable("write payload");
  }
  return Status::Ok();
}

void TcpTransport::EndpointImpl::send(NodeId dst, uint32_t type, Payload payload) {
  if (fabric_->stopping_.load()) return;
  NodeState& s = *fabric_->nodes_[id_];
  std::lock_guard<std::mutex> lock(s.conn_mu);
  auto it = s.conns.find(dst);
  if (it == s.conns.end()) {
    const int fd = fabric_->connect_to(dst);
    if (fd < 0) {
      HLOG_WARN << "tcp connect " << id_ << "->" << dst << " failed";
      return;
    }
    it = s.conns.emplace(dst, fd).first;
  }
  const Status status = fabric_->send_frame(it->second, type, id_, payload);
  if (!status.ok()) {
    ::close(it->second);
    s.conns.erase(it);
    HLOG_WARN << "tcp send " << id_ << "->" << dst << ": " << status.ToString();
  }
}

void TcpTransport::EndpointImpl::set_handler(MessageHandler handler) {
  fabric_->nodes_[id_]->handler = std::move(handler);
}

uint32_t TcpTransport::EndpointImpl::cluster_size() const {
  return static_cast<uint32_t>(fabric_->nodes_.size());
}

}  // namespace hamr::net

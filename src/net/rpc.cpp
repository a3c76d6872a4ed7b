#include "net/rpc.h"

#include "common/bytes.h"
#include "common/logging.h"
#include "serde/serde.h"

namespace hamr::net {

Rpc::Rpc(Router* router, ThreadPool* pool) : router_(router), pool_(pool) {
  router_->register_type(msg_type::kRpcRequest,
                         [this](Message&& m) { on_request(std::move(m)); });
  router_->register_type(msg_type::kRpcResponse,
                         [this](Message&& m) { on_response(std::move(m)); });
}

void Rpc::register_method(uint32_t method_id, RpcMethod method) {
  if (!methods_.emplace(method_id, std::move(method)).second) {
    throw std::logic_error("duplicate rpc method registration");
  }
}

std::future<Result<std::string>> Rpc::call(NodeId dst, uint32_t method_id,
                                           std::string argument) {
  const uint64_t request_id = next_request_id_.fetch_add(1);
  auto promise = std::make_shared<std::promise<Result<std::string>>>();
  std::future<Result<std::string>> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.emplace(request_id, promise);
  }

  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(request_id);
  w.put_varint(method_id);
  w.put_bytes(argument);
  router_->endpoint()->send(dst, msg_type::kRpcRequest, std::string(buf.view()));
  return future;
}

Result<std::string> Rpc::call_sync(NodeId dst, uint32_t method_id,
                                   std::string argument, Duration timeout) {
  auto future = call(dst, method_id, std::move(argument));
  if (future.wait_for(timeout) != std::future_status::ready) {
    return Status::DeadlineExceeded("rpc to node " + std::to_string(dst) +
                                    " method " + std::to_string(method_id));
  }
  return future.get();
}

void Rpc::on_request(Message&& msg) {
  const NodeId caller = msg.src;
  uint64_t request_id = 0;
  uint32_t method_id = 0;
  std::string argument;
  // A malformed request has no id to answer; it is logged and dropped.
  try {
    serde::Reader r(msg.payload.view());
    request_id = r.get_varint();
    method_id = static_cast<uint32_t>(r.get_varint());
    argument = std::string(r.get_bytes());
  } catch (const serde::DecodeError& e) {
    HLOG_ERROR << "node " << node_id() << " malformed rpc request from "
               << caller << ": " << e.what();
    return;
  }

  if (pool_ != nullptr) {
    pool_->submit([this, caller, request_id, method_id,
                   argument = std::move(argument)]() mutable {
      serve(caller, request_id, method_id, std::move(argument));
    });
  } else {
    serve(caller, request_id, method_id, std::move(argument));
  }
}

void Rpc::serve(NodeId caller, uint64_t request_id, uint32_t method_id,
                std::string argument) {
  bool ok = true;
  std::string result;
  auto it = methods_.find(method_id);
  if (it == methods_.end()) {
    ok = false;
    result = "unknown method " + std::to_string(method_id);
  } else {
    try {
      result = it->second(caller, argument);
    } catch (const std::exception& e) {
      ok = false;
      result = e.what();
    }
  }

  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(request_id);
  w.put_bool(ok);
  w.put_bytes(result);
  router_->endpoint()->send(caller, msg_type::kRpcResponse, std::string(buf.view()));
}

void Rpc::on_response(Message&& msg) {
  uint64_t request_id = 0;
  bool ok = false;
  std::string body;
  // A malformed response cannot be matched to its call, which then times
  // out; it is logged and dropped.
  try {
    serde::Reader r(msg.payload.view());
    request_id = r.get_varint();
    ok = r.get_bool();
    body = std::string(r.get_bytes());
  } catch (const serde::DecodeError& e) {
    HLOG_ERROR << "node " << node_id() << " malformed rpc response from "
               << msg.src << ": " << e.what();
    return;
  }

  std::shared_ptr<std::promise<Result<std::string>>> promise;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(request_id);
    if (it == pending_.end()) return;  // late response after timeout; drop
    promise = it->second;
    pending_.erase(it);
  }
  if (ok) {
    promise->set_value(std::move(body));
  } else {
    promise->set_value(Status::Internal("remote error: " + body));
  }
}

}  // namespace hamr::net

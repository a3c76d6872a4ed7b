#include "service/job_rpc.h"

#include <stdexcept>
#include <thread>

#include "serde/serde.h"

namespace hamr::service {

namespace {

JobStatus status_from_wire(uint8_t raw) {
  if (raw > static_cast<uint8_t>(JobStatus::kDeadlineExceeded)) {
    throw serde::DecodeError("bad job status byte " + std::to_string(raw));
  }
  return static_cast<JobStatus>(raw);
}

uint64_t decode_job_id(std::string_view arg) {
  serde::Reader r(arg);
  return r.get_varint();
}

std::string encode_status(JobStatus status) {
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_u8(static_cast<uint8_t>(status));
  return std::string(buf.view());
}

}  // namespace

JobRpcServer::JobRpcServer(JobService* service, net::Rpc* rpc)
    : service_(service) {
  rpc->register_method(rpc_id::kSubmit,
                       [this](net::NodeId, std::string_view arg) {
                         return handle_submit(arg);
                       });
  rpc->register_method(rpc_id::kPoll, [this](net::NodeId, std::string_view arg) {
    return handle_poll(arg);
  });
  rpc->register_method(rpc_id::kCancel,
                       [this](net::NodeId, std::string_view arg) {
                         return handle_cancel(arg);
                       });
  rpc->register_method(rpc_id::kDrain,
                       [this](net::NodeId, std::string_view arg) {
                         return handle_drain(arg);
                       });
  rpc->register_method(rpc_id::kResult,
                       [this](net::NodeId, std::string_view arg) {
                         return handle_result(arg);
                       });
}

std::string JobRpcServer::handle_submit(std::string_view arg) {
  serde::Reader r(arg);
  JobSpec spec;
  spec.tenant = std::string(r.get_bytes());
  spec.priority = static_cast<int32_t>(r.get_zigzag());
  spec.deadline = millis(static_cast<int64_t>(r.get_varint()));
  spec.job_type = std::string(r.get_bytes());
  spec.args = std::string(r.get_bytes());

  // Non-blocking: builds the work and takes an immediate admission decision.
  std::shared_ptr<JobTicket> ticket = service_->submit(spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets_.emplace(ticket->id(), ticket);
  }

  // The reply reports the admission outcome (kQueued or kRejected), not the
  // live status: an admitted job may already be running - or done - by the
  // time the reply is encoded.
  const JobStatus admission = ticket->status() == JobStatus::kRejected
                                  ? JobStatus::kRejected
                                  : JobStatus::kQueued;
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(ticket->id());
  w.put_u8(static_cast<uint8_t>(admission));
  return std::string(buf.view());
}

std::shared_ptr<JobTicket> JobRpcServer::ticket(std::string_view arg) const {
  const uint64_t job_id = decode_job_id(arg);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tickets_.find(job_id);
  if (it == tickets_.end()) throw std::invalid_argument("unknown job id");
  return it->second;
}

std::string JobRpcServer::handle_poll(std::string_view arg) {
  return encode_status(ticket(arg)->status());
}

std::string JobRpcServer::handle_cancel(std::string_view arg) {
  const bool ok = service_->cancel(decode_job_id(arg));
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_bool(ok);
  return std::string(buf.view());
}

std::string JobRpcServer::handle_drain(std::string_view arg) {
  const bool ok = service_->drain(decode_job_id(arg));
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_bool(ok);
  return std::string(buf.view());
}

std::string JobRpcServer::handle_result(std::string_view arg) {
  const std::shared_ptr<JobTicket> t = ticket(arg);
  const engine::JobResult result = t->result();
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_u8(static_cast<uint8_t>(t->status()));
  w.put_bytes(t->payload());
  w.put_bytes(t->error());
  w.put_double(result.wall_seconds);
  w.put_varint(result.metrics.counter("engine.records"));
  return std::string(buf.view());
}

// --- client ----------------------------------------------------------------

namespace {

std::string check(Result<std::string> res, const char* verb) {
  if (!res.ok()) {
    throw std::runtime_error(std::string("job rpc ") + verb + " failed: " +
                             res.status().ToString());
  }
  return std::move(res).value();
}

std::string encode_job_id(uint64_t job_id) {
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(job_id);
  return std::string(buf.view());
}

}  // namespace

uint64_t JobClient::submit(const JobSpec& spec, JobStatus* status) {
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_bytes(spec.tenant);
  w.put_zigzag(spec.priority);
  w.put_varint(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(spec.deadline)
          .count()));
  w.put_bytes(spec.job_type);
  w.put_bytes(spec.args);
  const std::string reply = check(
      rpc_.call_sync(server_, rpc_id::kSubmit, std::string(buf.view())),
      "submit");
  serde::Reader r(reply);
  const uint64_t id = r.get_varint();
  const JobStatus st = status_from_wire(r.get_u8());
  if (status != nullptr) *status = st;
  return id;
}

JobStatus JobClient::poll(uint64_t job_id) {
  const std::string reply = check(
      rpc_.call_sync(server_, rpc_id::kPoll, encode_job_id(job_id)), "poll");
  serde::Reader r(reply);
  return status_from_wire(r.get_u8());
}

bool JobClient::cancel(uint64_t job_id) {
  const std::string reply = check(
      rpc_.call_sync(server_, rpc_id::kCancel, encode_job_id(job_id)),
      "cancel");
  serde::Reader r(reply);
  return r.get_bool();
}

bool JobClient::drain(uint64_t job_id) {
  const std::string reply = check(
      rpc_.call_sync(server_, rpc_id::kDrain, encode_job_id(job_id)),
      "drain");
  serde::Reader r(reply);
  return r.get_bool();
}

JobClient::RemoteResult JobClient::result(uint64_t job_id) {
  const std::string reply = check(
      rpc_.call_sync(server_, rpc_id::kResult, encode_job_id(job_id)),
      "result");
  serde::Reader r(reply);
  RemoteResult out;
  out.status = status_from_wire(r.get_u8());
  out.payload = std::string(r.get_bytes());
  out.error = std::string(r.get_bytes());
  out.wall_seconds = r.get_double();
  out.records_emitted = r.get_varint();
  return out;
}

JobStatus JobClient::wait(uint64_t job_id, Duration timeout,
                          Duration poll_every) {
  const TimePoint deadline = now() + timeout;
  for (;;) {
    const JobStatus st = poll(job_id);
    if (is_terminal(st) || now() >= deadline) return st;
    std::this_thread::sleep_for(poll_every);
  }
}

}  // namespace hamr::service

// RPC front-end for the JobService: submit / poll / cancel / result verbs
// registered on a net::Rpc, so clients drive jobs over the transport fabric
// (InProcTransport or TcpTransport alike).
//
// Handlers never block: submit is non-blocking admission (a full queue
// answers kRejected immediately), poll/cancel/result only read or flip
// ticket state. Clients that want to wait poll (JobClient::wait).
//
// Wire formats (serde):
//   submit arg   : bytes tenant | zigzag priority | varint deadline_ms |
//                  bytes job_type | bytes args
//   submit reply : varint job_id | u8 status
//   poll arg     : varint job_id        -> reply: u8 status
//   cancel arg   : varint job_id        -> reply: bool cancelled
//   drain arg    : varint job_id        -> reply: bool draining
//   result arg   : varint job_id        -> reply: u8 status | bytes payload |
//                  bytes error | double wall_seconds | varint records_emitted
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "net/rpc.h"
#include "service/job_service.h"

namespace hamr::service {

// Service RPC method ids: above the kv lane range [100, 260), below nothing
// else registered today.
namespace rpc_id {
inline constexpr uint32_t kSubmit = 300;
inline constexpr uint32_t kPoll = 301;
inline constexpr uint32_t kCancel = 302;
inline constexpr uint32_t kResult = 303;
inline constexpr uint32_t kDrain = 304;
}  // namespace rpc_id

// Server side: registers the verbs on `rpc` (not owned; both must outlive
// the fabric). Jobs are built from the service's registered JobBuilders.
// The service forgets a job once it is terminal, so the server owns the
// tickets it issued: poll and result answer for finished jobs for as long
// as the server lives.
class JobRpcServer {
 public:
  JobRpcServer(JobService* service, net::Rpc* rpc);

 private:
  std::string handle_submit(std::string_view arg);
  std::string handle_poll(std::string_view arg);
  std::string handle_cancel(std::string_view arg);
  std::string handle_drain(std::string_view arg);
  std::string handle_result(std::string_view arg);
  // Throws std::invalid_argument for an id this server never issued.
  std::shared_ptr<JobTicket> ticket(std::string_view arg) const;

  JobService* service_;
  mutable std::mutex mu_;  // tickets_ (handlers run on delivery threads)
  std::map<uint64_t, std::shared_ptr<JobTicket>> tickets_;
};

// Client side: thin wrapper over blocking RPC calls to the server node.
class JobClient {
 public:
  struct RemoteResult {
    JobStatus status = JobStatus::kQueued;
    std::string payload;
    std::string error;
    double wall_seconds = 0;
    uint64_t records_emitted = 0;
  };

  explicit JobClient(net::Rpc& rpc, net::NodeId server = 0)
      : rpc_(rpc), server_(server) {}

  // Returns the job id; the returned status is kQueued or kRejected.
  uint64_t submit(const JobSpec& spec, JobStatus* status = nullptr);
  JobStatus poll(uint64_t job_id);
  bool cancel(uint64_t job_id);
  // Graceful streaming wind-down (JobService::drain): the job completes as
  // kDone with its payload instead of kCancelled.
  bool drain(uint64_t job_id);
  RemoteResult result(uint64_t job_id);

  // Polls until terminal or timeout; returns the last observed status.
  JobStatus wait(uint64_t job_id, Duration timeout = std::chrono::seconds(60),
                 Duration poll_every = millis(5));

 private:
  net::Rpc& rpc_;
  net::NodeId server_;
};

}  // namespace hamr::service

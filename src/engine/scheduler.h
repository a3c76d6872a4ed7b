// Scheduler: the node's one bin queue (paper §2, Fig. 2) - a bin deque and a
// task deque behind ONE mutex, served by every worker thread.
//
// Guarantees, all of which hold by construction because every push, pop and
// byte count happens under that one lock:
//  - FIFO per sender: both deques are pushed at the back and popped at the
//    front, bins before tasks (draining received data keeps upstream nodes
//    unblocked), so a worker's batch is a contiguous run in arrival order.
//  - Receiver byte budget: push_bin blocks the delivery thread while the
//    queued bytes are at or over budget (unless `force`), and a pop that
//    crosses back under budget wakes it. The bytes are counted in the same
//    critical section that publishes the item, so no pop can run ahead of
//    its count.
//  - Fair batches: next_batch takes up to `max` units, but never more than
//    max(1, queued / workers), so a backlog spreads over idle workers.
//  - Wakeups only where needed: a push wakes one sleeping worker only when
//    the queue was empty; a pop that leaves work behind while a worker
//    sleeps wakes one more. Pushes into a backlog make no syscalls.
//
// Contended acquisitions of the lock are timed into engine.sched_lock_wait_ns
// and budget waits into engine.bin_queue_wait_ns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "net/payload.h"

namespace hamr::engine {

// One received item: a data bin or a control message, plus the retry count
// fault recovery stamps on it.
struct QueueItem {
  bool is_control = false;
  uint32_t src = 0;
  uint32_t attempts = 0;  // crash-retry count for this bin
  // Per-destination-flowlet enqueue index (bins_enqueued fetch_add value),
  // carried so completion can advance the flowlet's processed-bin prefix.
  uint64_t bin_index = 0;
  // The message as delivered: a bin's shared body, uncopied since it was
  // sealed. Dropping the last reference frees it.
  net::Payload payload;
};

class Scheduler {
 public:
  // Hot-path metric handles, all optional (null = not recorded).
  struct Hooks {
    Counter* lock_wait_ns = nullptr;   // engine.sched_lock_wait_ns
    Counter* budget_wait_ns = nullptr; // engine.bin_queue_wait_ns
    Gauge* depth = nullptr;            // engine.bin_queue_depth
    Gauge* bytes = nullptr;            // engine.bin_queue_bytes
  };

  // Either a bin/control item or a task, never both.
  struct Work {
    bool is_item = false;
    QueueItem item;
    std::function<void()> task;
  };

  Scheduler(uint32_t workers, uint64_t byte_budget);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void set_hooks(const Hooks& hooks) { hooks_ = hooks; }
  uint32_t workers() const { return workers_; }

  // Delivery-thread ingress. Blocks while the queued bytes are at or over the
  // budget unless `force` (crash retries re-add bytes they already own;
  // blocking there could deadlock against the delivery thread). Returns false
  // if the scheduler stopped while waiting (the item is dropped).
  bool push_bin(QueueItem&& item, bool force = false);

  // Task submission (any thread).
  void push_task(std::function<void()> task);

  // Blocking single-unit pop; false when stopping and drained.
  bool next(Work* out);

  // Blocking batched pop: appends up to `max` units (at most the fair share)
  // taken in queue order under one lock acquisition. Returns the number
  // taken, 0 only when the scheduler is stopping and fully drained.
  size_t next_batch(std::vector<Work>* out, size_t max);

  // Wakes everything; workers drain remaining work, push_bin waiters return.
  void stop();

  uint64_t queued_bytes() const;
  uint64_t queued_items() const;

 private:
  std::unique_lock<std::mutex> lock_timed();
  bool empty_locked() const { return bins_.empty() && tasks_.empty(); }
  void publish_gauges_locked();

  const uint32_t workers_;
  const uint64_t byte_budget_;
  Hooks hooks_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // idle workers
  std::condition_variable space_cv_;  // push_bin over budget
  std::deque<QueueItem> bins_;
  std::deque<std::function<void()>> tasks_;
  uint64_t queued_bytes_ = 0;
  uint32_t idle_ = 0;  // workers waiting on work_cv_
  bool stopping_ = false;
};

}  // namespace hamr::engine

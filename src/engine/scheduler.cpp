#include "engine/scheduler.h"

#include <algorithm>

#include "common/clock.h"

namespace hamr::engine {

Scheduler::Scheduler(uint32_t workers, uint64_t byte_budget)
    : workers_(workers == 0 ? 1 : workers), byte_budget_(byte_budget) {}

std::unique_lock<std::mutex> Scheduler::lock_timed() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    const TimePoint t0 = now();
    lock.lock();
    if (hooks_.lock_wait_ns != nullptr) {
      hooks_.lock_wait_ns->add(static_cast<uint64_t>((now() - t0).count()));
    }
  }
  return lock;
}

bool Scheduler::push_bin(QueueItem&& item, bool force) {
  const uint64_t bytes = item.payload.size();
  std::unique_lock<std::mutex> lock = lock_timed();
  if (!force) {
    // Receiver-side backpressure: the delivery thread (the only non-retry
    // caller) blocks while the queue is over budget, which fills the
    // transport ingress and stalls remote senders. Control items ride the
    // same path to preserve per-sender FIFO.
    if (!stopping_ && queued_bytes_ >= byte_budget_) {
      const TimePoint t0 = now();
      space_cv_.wait(lock, [&] { return stopping_ || queued_bytes_ < byte_budget_; });
      const Duration waited = now() - t0;
      if (waited >= micros(100) && hooks_.budget_wait_ns != nullptr) {
        hooks_.budget_wait_ns->add(static_cast<uint64_t>(waited.count()));
      }
    }
    if (stopping_) return false;
  }
  const bool wake = empty_locked() && idle_ > 0;
  bins_.push_back(std::move(item));
  queued_bytes_ += bytes;
  publish_gauges_locked();
  lock.unlock();
  if (wake) work_cv_.notify_one();
  return true;
}

void Scheduler::push_task(std::function<void()> task) {
  std::unique_lock<std::mutex> lock = lock_timed();
  const bool wake = empty_locked() && idle_ > 0;
  tasks_.push_back(std::move(task));
  lock.unlock();
  if (wake) work_cv_.notify_one();
}

bool Scheduler::next(Work* out) {
  std::vector<Work> batch;
  if (next_batch(&batch, 1) == 0) return false;
  *out = std::move(batch.front());
  return true;
}

size_t Scheduler::next_batch(std::vector<Work>* out, size_t max) {
  std::unique_lock<std::mutex> lock = lock_timed();
  if (empty_locked() && !stopping_) {
    ++idle_;
    work_cv_.wait(lock, [&] { return stopping_ || !empty_locked(); });
    --idle_;
  }
  if (empty_locked()) return 0;  // stopping and drained
  const size_t share = std::max<size_t>(1, (bins_.size() + tasks_.size()) / workers_);
  const size_t take = std::min(std::max<size_t>(max, 1), share);
  const uint64_t bytes_before = queued_bytes_;
  for (size_t i = 0; i < take; ++i) {
    Work w;
    if (!bins_.empty()) {
      w.is_item = true;
      w.item = std::move(bins_.front());
      bins_.pop_front();
      queued_bytes_ -= w.item.payload.size();
    } else {
      w.task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    out->push_back(std::move(w));
  }
  publish_gauges_locked();
  const bool wake_worker = !empty_locked() && idle_ > 0;
  const bool wake_space =
      bytes_before >= byte_budget_ && queued_bytes_ < byte_budget_;
  lock.unlock();
  if (wake_worker) work_cv_.notify_one();
  if (wake_space) space_cv_.notify_all();
  return take;
}

void Scheduler::publish_gauges_locked() {
  if (hooks_.depth != nullptr) hooks_.depth->set(static_cast<int64_t>(bins_.size()));
  if (hooks_.bytes != nullptr) hooks_.bytes->set(static_cast<int64_t>(queued_bytes_));
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
}

uint64_t Scheduler::queued_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_bytes_;
}

uint64_t Scheduler::queued_items() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bins_.size() + tasks_.size();
}

}  // namespace hamr::engine

// BufferPool: node-level recycling of payload buffers.
//
// Every shuffle bin and every retransmission frame used to allocate a fresh
// std::string on build and free it after send/ack. A BufferPool keeps a
// bounded freelist of those strings so their heap capacity survives the
// round trip: a BinBuilder acquires, and a sealed bin's shared body
// (to_shared below) comes back when its last holder drops it - the worker
// that processed the bin, or the reliable channel once the frame is acked.
//
// Bounded on both axes: at most `max_buffers` strings are retained, and a
// returned string whose capacity exceeds `max_buffer_bytes` is dropped so a
// single jumbo bin cannot pin memory forever. Thread-safe; the counters (one
// atomic bump per acquire) feed `engine.pool_hits` / `engine.pool_misses`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace hamr {

class BufferPool {
 public:
  explicit BufferPool(size_t max_buffers = 256,
                      size_t max_buffer_bytes = 1024 * 1024)
      : max_buffers_(max_buffers), max_buffer_bytes_(max_buffer_bytes) {}

  void set_metrics(Counter* hits, Counter* misses, Gauge* hit_rate = nullptr) {
    hits_ = hits;
    misses_ = misses;
    hit_rate_ = hit_rate;
  }

  // An empty string, reusing a pooled buffer's capacity when one is free.
  std::string acquire() {
    bool hit = false;
    std::string buf;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        buf = std::move(free_.back());
        free_.pop_back();
        hit = true;
      }
    }
    if (hit) {
      hits_n_.fetch_add(1, std::memory_order_relaxed);
      if (hits_ != nullptr) hits_->inc();
    } else {
      misses_n_.fetch_add(1, std::memory_order_relaxed);
      if (misses_ != nullptr) misses_->inc();
    }
    if (hit_rate_ != nullptr) hit_rate_->set(hit_rate_percent());
    return buf;
  }

  // Recycled-capacity ratio over the pool's lifetime, in whole percent.
  int64_t hit_rate_percent() const {
    const uint64_t h = hits_n_.load(std::memory_order_relaxed);
    const uint64_t total = h + misses_n_.load(std::memory_order_relaxed);
    return total == 0 ? 0 : static_cast<int64_t>(h * 100 / total);
  }

  // Returns a buffer to the pool (cleared; capacity kept). Oversized or
  // surplus buffers are simply freed.
  void release(std::string&& buf) {
    if (buf.capacity() == 0 || buf.capacity() > max_buffer_bytes_) return;
    buf.clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() >= max_buffers_) return;  // drop: pool is full
    free_.push_back(std::move(buf));
  }

  size_t free_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

 private:
  const size_t max_buffers_;
  const size_t max_buffer_bytes_;
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Gauge* hit_rate_ = nullptr;
  std::atomic<uint64_t> hits_n_{0};
  std::atomic<uint64_t> misses_n_{0};
  mutable std::mutex mu_;
  std::vector<std::string> free_;
};

// Wraps a buffer in immutable shared ownership; when the last holder drops
// its reference the buffer's capacity goes back to `pool`. This deleter is
// the only way a shared buffer returns to a pool. It captures the
// shared_ptr to the pool itself, so pooled payloads may safely outlive the
// runtime that created them (bins can still sit in a transport queue or a
// peer's bin queue while their node is being torn down).
inline std::shared_ptr<const std::string> to_shared(
    std::shared_ptr<BufferPool> pool, std::string&& buf) {
  auto* raw = new std::string(std::move(buf));
  return std::shared_ptr<const std::string>(
      raw, [pool = std::move(pool)](const std::string* p) {
        // The last holder is gone, so the bytes may be moved out: `p` was
        // allocated non-const above.
        auto* owned = const_cast<std::string*>(p);
        pool->release(std::move(*owned));
        delete owned;
      });
}

}  // namespace hamr

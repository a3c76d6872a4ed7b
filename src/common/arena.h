// Arena: a chunked byte allocator for hot-path record staging.
//
// The engine's combine tables and reduce staging used to pay one (or two)
// std::string heap allocations per record. An Arena instead hands out slices
// of large chunks: allocation is a pointer bump, freeing is wholesale
// (clear / destruction). Chunks are never relocated, so slices stay stable
// as the arena grows - callers can hold string_views into it across inserts.
//
// An optional Gauge tracks the bytes currently reserved by live arenas
// (charged per chunk, so the gauge costs nothing per allocation); the engine
// wires every staging arena to `engine.arena_bytes`.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace hamr {

class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(Gauge* reserved_gauge = nullptr,
                 size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes), gauge_(reserved_gauge) {}

  ~Arena() { release_all(); }

  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      release_all();
      chunks_ = std::move(other.chunks_);
      chunk_bytes_ = other.chunk_bytes_;
      head_ = other.head_;
      head_left_ = other.head_left_;
      used_ = other.used_;
      reserved_ = other.reserved_;
      gauge_ = other.gauge_;
      other.chunks_.clear();
      other.head_ = nullptr;
      other.head_left_ = 0;
      other.used_ = 0;
      other.reserved_ = 0;
    }
    return *this;
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Uninitialized slice of `n` bytes; stable for the arena's lifetime.
  char* alloc(size_t n) {
    if (n > head_left_) refill(n);
    char* p = head_;
    head_ += n;
    head_left_ -= n;
    used_ += n;
    return p;
  }

  // Copies `bytes` into the arena and returns the stable copy.
  std::string_view store(std::string_view bytes) {
    char* p = alloc(bytes.size());
    // An empty first slice is the fresh arena's null head: memcpy's
    // arguments must be non-null even for 0 bytes.
    if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
    return {p, bytes.size()};
  }

  // Bytes handed out since the last clear().
  uint64_t used_bytes() const { return used_; }
  // Bytes reserved from the allocator (what the gauge reports).
  uint64_t reserved_bytes() const { return reserved_; }

  // Drops every chunk. Slices returned earlier become dangling.
  void clear() {
    release_all();
    chunks_.clear();
    head_ = nullptr;
    head_left_ = 0;
    used_ = 0;
  }

 private:
  void refill(size_t need) {
    const size_t size = std::max(need, chunk_bytes_);
    chunks_.push_back(std::make_unique<char[]>(size));
    head_ = chunks_.back().get();
    head_left_ = size;
    reserved_ += size;
    if (gauge_ != nullptr) gauge_->add(static_cast<int64_t>(size));
  }

  void release_all() {
    if (gauge_ != nullptr && reserved_ != 0) {
      gauge_->sub(static_cast<int64_t>(reserved_));
    }
    reserved_ = 0;
  }

  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t chunk_bytes_ = kDefaultChunkBytes;
  char* head_ = nullptr;
  size_t head_left_ = 0;
  uint64_t used_ = 0;
  uint64_t reserved_ = 0;
  Gauge* gauge_ = nullptr;
};

}  // namespace hamr

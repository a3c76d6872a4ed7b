// Byte-buffer primitives shared by serde, net, and the engine's bins.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace hamr {

// A growable, contiguous byte buffer. Thin wrapper over std::vector<uint8_t>
// with append helpers; serde::Writer builds on it.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(size_t reserve_bytes) { data_.reserve(reserve_bytes); }

  void append(const void* src, size_t len) {
    const auto* p = static_cast<const uint8_t*>(src);
    data_.insert(data_.end(), p, p + len);
  }
  void append(std::string_view sv) { append(sv.data(), sv.size()); }
  void push_back(uint8_t b) { data_.push_back(b); }

  void clear() { data_.clear(); }
  void resize(size_t n) { data_.resize(n); }
  void reserve(size_t n) { data_.reserve(n); }

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  const uint8_t* data() const { return data_.data(); }
  uint8_t* data() { return data_.data(); }

  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_.data()), data_.size()};
  }

  std::vector<uint8_t>& vec() { return data_; }
  const std::vector<uint8_t>& vec() const { return data_; }

 private:
  std::vector<uint8_t> data_;
};

// Non-owning view of bytes with a read cursor; serde::Reader builds on it.
using BytesView = std::string_view;

}  // namespace hamr

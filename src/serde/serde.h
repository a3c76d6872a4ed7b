// From-scratch binary serialization: bounds-checked little-endian readers and
// writers with varint/zigzag integer encodings.
//
// This is the wire format for everything that crosses a (simulated or TCP)
// node boundary: shuffle bins, RPC envelopes, DFS blocks, and spill files.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace hamr::serde {

// Thrown on malformed input (truncated buffer, varint overflow). Reaching
// this indicates either corruption or a protocol bug, so we fail fast.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

// Appends encoded values to a ByteBuffer it does not own.
class Writer {
 public:
  explicit Writer(ByteBuffer& out) : out_(out) {}

  void put_u8(uint8_t v) { out_.push_back(v); }

  void put_fixed32(uint32_t v) {
    uint8_t b[4];
    std::memcpy(b, &v, 4);  // little-endian hosts only; asserted in tests
    out_.append(b, 4);
  }

  void put_fixed64(uint64_t v) {
    uint8_t b[8];
    std::memcpy(b, &v, 8);
    out_.append(b, 8);
  }

  void put_varint(uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<uint8_t>(v));
  }

  void put_zigzag(int64_t v) {
    put_varint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  void put_double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put_fixed64(bits);
  }

  // Length-prefixed byte string.
  void put_bytes(std::string_view sv) {
    put_varint(sv.size());
    out_.append(sv);
  }

  // Unprefixed raw bytes: one append, no per-element framing. The batch
  // codecs (batch.h) use this to move whole fixed-width runs in one shot.
  void put_raw(const void* data, size_t len) {
    out_.append(static_cast<const uint8_t*>(data), len);
  }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  ByteBuffer& buffer() { return out_; }

 private:
  ByteBuffer& out_;
};

// Varint append straight into a std::string (run files and cache blocks are
// strings, not ByteBuffers); same encoding as Writer::put_varint.
inline void put_varint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(static_cast<uint8_t>(v) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// Encoded size of put_varint(v), for sizing buffers before encoding.
inline size_t varint_size(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// Reads encoded values from a non-owned byte range with strict bounds checks.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  Reader(const uint8_t* data, size_t len)
      : data_(reinterpret_cast<const char*>(data), len) {}

  uint8_t get_u8() {
    require(1);
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t get_fixed32() {
    require(4);
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  uint64_t get_fixed64() {
    require(8);
    uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  uint64_t get_varint() {
    uint64_t result = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw DecodeError("varint overflow");
      const uint8_t byte = get_u8();
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return result;
      shift += 7;
    }
  }

  int64_t get_zigzag() {
    const uint64_t raw = get_varint();
    return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  double get_double() {
    const uint64_t bits = get_fixed64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  std::string_view get_bytes() {
    const uint64_t len = get_varint();
    require(len);
    std::string_view sv = data_.substr(pos_, len);
    pos_ += len;
    return sv;
  }

  // Unprefixed raw view of the next `len` bytes: one bounds check for the
  // whole run (batch codec counterpart of put_raw).
  std::string_view get_raw(size_t len) {
    require(len);
    std::string_view sv = data_.substr(pos_, len);
    pos_ += len;
    return sv;
  }

  bool get_bool() { return get_u8() != 0; }

  bool at_end() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  void require(uint64_t n) const {
    if (n > data_.size() - pos_) {
      throw DecodeError("truncated buffer: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(data_.size() - pos_));
    }
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace hamr::serde

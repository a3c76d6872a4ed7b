// Bins: packed batches of key-value records, the engine's unit of transfer
// and scheduling.
//
// Wire layout:
//   header := varint job_epoch | varint edge_id | varint record_count
//   records := (varint key_len | key | varint value_len | value)*
//
// The record_count varint is written padded to a fixed 5 bytes (continuation
// bits on the leading four) so the builder can reserve the slot up front and
// patch it when the bin is sealed. It decodes with the ordinary varint
// reader; counts up to 2^35-1 fit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serde/serde.h"

namespace hamr::engine {

using EdgeId = uint32_t;

struct KvPair {
  std::string_view key;
  std::string_view value;
};

// Builds one bin. Not thread-safe; each task uses its own builders.
// Default-constructed builders are closed (dense per-task builder tables
// construct every slot up front and open slots on first use).
//
// Records are appended straight into the output string — header first, then
// records — so sealing a bin is a count patch plus a move, never a copy.
class BinBuilder {
 public:
  BinBuilder() = default;
  BinBuilder(uint64_t job_epoch, EdgeId edge);

  // Arms a closed (or freshly taken) builder for a new (epoch, edge).
  void open(uint64_t job_epoch, EdgeId edge);
  bool is_open() const { return open_; }

  void add(std::string_view key, std::string_view value);

  uint64_t payload_bytes() const { return payload_.size(); }
  uint64_t records() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Seals the bin (patches the record count) and moves the payload out,
  // resetting the builder for reuse.
  std::string take();

 private:
  void ensure_header();

  uint64_t job_epoch_ = 0;
  EdgeId edge_ = 0;
  bool open_ = false;
  std::string payload_;
  size_t count_pos_ = 0;
  bool header_written_ = false;
  uint64_t count_ = 0;
};

// Parses a received bin. Views returned by the iterator point into the
// bin's bytes, which the caller keeps alive.
class BinView {
 public:
  // Throws serde::DecodeError on malformed input.
  explicit BinView(std::string_view data);

  uint64_t job_epoch() const { return job_epoch_; }
  EdgeId edge() const { return edge_; }
  uint64_t records() const { return count_; }

  // Iteration: returns false at end.
  bool next(KvPair* out);
  void rewind();

 private:
  std::string_view data_;
  uint64_t job_epoch_ = 0;
  EdgeId edge_ = 0;
  uint64_t count_ = 0;
  size_t records_start_ = 0;
  size_t pos_ = 0;
  uint64_t seen_ = 0;
};

}  // namespace hamr::engine

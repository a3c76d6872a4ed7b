// Streaming core types (paper §1.7: stream sources + windowed partial reduce
// on the same dataflow runtime).
//
// Event-time model:
//   * Every event carries a timestamp in event-time microseconds.
//   * Window state lives in the ordinary partial-reduce accumulator table
//     under composite keys  'w' + 16-hex(window end) + '|' + user key, so
//     window assignment happens sender-side and hash partitioning spreads
//     (window, key) pairs like any other key.
//   * Watermarks travel IN BAND as punctuation records (key prefix 0x00)
//     broadcast on the same edge as data. The transport's per-(src,dst)
//     channel FIFO - restored by the reliable shuffle under faults - makes a
//     punctuation's arrival prove that every event it covers arrived first.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "serde/serde.h"

namespace hamr::stream {

// Event-time window specification (microseconds). slide_us == 0 (or equal to
// size_us) means tumbling; a smaller slide makes overlapping sliding windows.
struct WindowSpec {
  int64_t size_us = 1'000'000;
  int64_t slide_us = 0;

  int64_t slide() const { return slide_us > 0 ? slide_us : size_us; }

  // Invokes fn(window_end_us) for every window containing ts, newest first.
  template <typename Fn>
  void each_window(int64_t ts, Fn&& fn) const {
    const int64_t s = slide();
    // Floor division so negative timestamps window correctly too.
    int64_t q = ts / s;
    if (ts % s < 0) --q;
    for (int64_t start = q * s; start > ts - size_us; start -= s) {
      fn(start + size_us);
    }
  }
};

// --- composite window keys -------------------------------------------------

inline constexpr size_t kWindowKeyPrefix = 18;  // 'w' + 16 hex + '|'

// Writes the 18-byte composite prefix for `end_us` into buf (size >= 18).
inline void write_window_prefix(int64_t end_us, char* buf) {
  static constexpr char kHex[] = "0123456789abcdef";
  buf[0] = 'w';
  const uint64_t v = static_cast<uint64_t>(end_us);
  for (int i = 0; i < 16; ++i) {
    buf[1 + i] = kHex[(v >> (60 - 4 * i)) & 0xF];
  }
  buf[17] = '|';
}

inline std::string window_key(int64_t end_us, std::string_view user_key) {
  std::string key(kWindowKeyPrefix + user_key.size(), '\0');
  write_window_prefix(end_us, key.data());
  std::copy(user_key.begin(), user_key.end(), key.begin() + kWindowKeyPrefix);
  return key;
}

// Window end of a composite key, or INT64_MIN when the key carries none.
inline int64_t window_key_end(std::string_view key) {
  if (key.size() < kWindowKeyPrefix || key[0] != 'w' || key[17] != '|') {
    return INT64_MIN;
  }
  uint64_t v = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = key[1 + i];
    uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return INT64_MIN;
    }
    v = (v << 4) | d;
  }
  return static_cast<int64_t>(v);
}

inline std::string_view window_key_user(std::string_view key) {
  return key.size() >= kWindowKeyPrefix ? key.substr(kWindowKeyPrefix)
                                        : std::string_view{};
}

// --- watermark punctuation -------------------------------------------------
// key = {0x00, 'w', 'm'}; value = varint origin | zigzag watermark_us. The
// 0x00 prefix cannot collide with 'w'-prefixed window keys or ordinary text
// keys.

inline std::string_view punctuation_key() {
  static constexpr char kKey[] = {'\0', 'w', 'm'};
  return {kKey, sizeof(kKey)};
}

inline bool is_punctuation_key(std::string_view key) {
  return key.size() == 3 && key[0] == '\0' && key[1] == 'w' && key[2] == 'm';
}

inline std::string encode_punctuation(uint32_t origin, int64_t watermark_us) {
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(origin);
  w.put_zigzag(watermark_us);
  return std::string(buf.view());
}

inline bool decode_punctuation(std::string_view value, uint32_t* origin,
                               int64_t* watermark_us) {
  try {
    serde::Reader r(value);
    *origin = static_cast<uint32_t>(r.get_varint());
    *watermark_us = r.get_zigzag();
    return true;
  } catch (const serde::DecodeError&) {
    return false;
  }
}

// --- live stream counters --------------------------------------------------
// Shared between the flowlet instances of a running stream (captured into
// the factories) and the StreamTicket's poll path. Lane-safe, unlike node
// metrics, which are shared by every lane on a node. Every worker of every
// node writes the same block, so the window operator adds to window_bytes
// once per folded bin (the bin's total table growth), never per event; it
// subtracts once per emitted (window, key) result, so the count returns to 0
// when every window has closed, and between bins it may lag or briefly dip
// below 0.
struct StreamStats {
  std::atomic<uint64_t> events_ingested{0};
  std::atomic<uint64_t> windows_emitted{0};   // distinct closed window ends
  std::atomic<uint64_t> results_emitted{0};   // (window, key) pairs emitted
  std::atomic<uint64_t> backpressure_stalls{0};
  std::atomic<int64_t> watermark{INT64_MIN};  // newest source watermark
  std::atomic<int64_t> window_bytes{0};       // open-window key + acc bytes
};

}  // namespace hamr::stream

// Lock-cheap tracing: per-thread ring buffers of Chrome trace_event spans.
//
// A TraceRecorder owns one fixed-capacity ring per recording thread. Threads
// register their ring lazily on first use (one mutex acquisition per thread
// per recorder, ever); after that, recording an event is a handful of plain
// stores plus one release store of the ring head - no locks, no allocation.
// When the ring wraps, the oldest events are overwritten and counted as
// dropped; tracing never blocks or slows the traced code beyond that.
//
// The off path is a single relaxed atomic load: TraceSpan checks
// `enabled()` once at construction and is a no-op afterwards, so leaving
// instrumentation compiled in costs nothing measurable when tracing is off.
//
// drain() is meant to run at a quiescent point (job end, bench teardown,
// after joining worker threads): it walks every ring and empties it. Events
// recorded concurrently with a drain on a *full* ring may race with the
// overwrite of the oldest slot; the engine only drains between jobs, so in
// practice drains see quiesced rings.
//
// Output is the Chrome trace_event JSON array format understood by
// chrome://tracing and Perfetto: complete events (ph "X") for spans and
// instant events (ph "i") for point occurrences, with pid = node id and
// tid = per-thread ring index, so the trace viewer groups lanes by node.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace hamr::obs {

// One recorded event. `name` and `cat` must be string literals (or otherwise
// outlive the recorder); events store the pointers, never copies.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char phase = 'X';      // 'X' complete (span), 'i' instant
  uint32_t node = 0;     // rendered as pid
  uint32_t tid = 0;      // per-recorder thread ring index
  int64_t flowlet = -1;  // -1 = not flowlet-scoped
  int64_t aux = -1;      // event-specific id (seq, bytes, cursor, ...)
  uint64_t ts_us = 0;    // microseconds since recorder epoch
  uint64_t dur_us = 0;   // span duration; 0 for instants
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 14;  // per thread

  explicit TraceRecorder(size_t ring_capacity = kDefaultRingCapacity);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records a completed span [start, end). No-op when disabled.
  void record_span(const char* name, const char* cat, uint32_t node,
                   int64_t flowlet, int64_t aux, TimePoint start,
                   TimePoint end);

  // Records an instant event at now(). No-op when disabled.
  void record_instant(const char* name, const char* cat, uint32_t node,
                      int64_t flowlet = -1, int64_t aux = -1);

  // Empties every thread ring, returning surviving events (per-thread order
  // preserved; threads concatenated in registration order). Call at a
  // quiescent point.
  std::vector<TraceEvent> drain();

  // Events overwritten by ring wraparound before they could be drained.
  // Updated by drain().
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Number of thread rings registered so far.
  size_t ring_count() const;

  // Serializes events as {"traceEvents":[...]} - the Chrome trace format.
  static std::string to_json(const std::vector<TraceEvent>& events);

  // drain() + to_json() in one step.
  std::string drain_to_json() { return to_json(drain()); }

 private:
  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    // Total events ever written by the owning thread. The owner stores with
    // release order after filling a slot; drain() acquires before reading.
    std::atomic<uint64_t> head{0};
    uint64_t consumed = 0;  // drained so far (drain-side only)
    uint32_t tid = 0;
    std::vector<TraceEvent> slots;
  };

  Ring* this_thread_ring();
  void push(Ring* ring, const TraceEvent& ev);

  // Distinguishes recorders in the thread-local ring map so a thread that
  // outlives one recorder never resolves a stale ring of a dead one.
  const uint64_t id_;
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  const TimePoint epoch_;

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<uint64_t> dropped_{0};
};

// Process-global recorder: lets deep layers (net, storage, kvstore) emit
// events without threading a pointer through every constructor. Disabled by
// default; the bench harness enables it under --trace.
TraceRecorder& trace();

// RAII span writing to the global recorder. Captures `enabled()` once at
// construction; when tracing is off the whole object is one relaxed load.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, uint32_t node,
            int64_t flowlet = -1, int64_t aux = -1)
      : active_(trace().enabled()) {
    if (active_) {
      name_ = name;
      cat_ = cat;
      node_ = node;
      flowlet_ = flowlet;
      aux_ = aux;
      start_ = now();
    }
  }

  ~TraceSpan() {
    if (active_) {
      trace().record_span(name_, cat_, node_, flowlet_, aux_, start_, now());
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_;
  const char* name_ = "";
  const char* cat_ = "";
  uint32_t node_ = 0;
  int64_t flowlet_ = -1;
  int64_t aux_ = -1;
  TimePoint start_{};
};

}  // namespace hamr::obs

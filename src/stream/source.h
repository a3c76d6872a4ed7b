// Pull-based stream sources and the loader adapter that runs them.
//
// A StreamSource produces timestamped events from a replayable cursor plus a
// per-source low watermark. SourceFlowlet adapts one source to the engine's
// LoaderFlowlet chunk protocol: it assigns each event to its event-time
// windows (sender-side, so hash partitioning spreads (window, key) pairs),
// broadcasts in-band watermark punctuation, and pauses when downstream
// window state exceeds its backpressure budget.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "engine/flowlet.h"
#include "engine/rate_gate.h"
#include "engine/split.h"
#include "stream/stream.h"

namespace hamr::stream {

// One timestamped event.
struct StreamEvent {
  int64_t ts_us = 0;
  std::string key;
  std::string value;
};

// Replayable event source. One instance serves one split's chunk chain, so
// poll()/watermark() are called sequentially (no internal locking needed);
// replay determinism requires that the events be a pure function of the
// cursor.
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  // Appends up to `max_events` events starting at *cursor and advances it.
  // Returns false when the source is exhausted (bounded sources); true means
  // "poll again" - possibly having appended nothing yet (a file tail at
  // end-of-file).
  virtual bool poll(const engine::InputSplit& split, uint64_t* cursor,
                    size_t max_events, engine::Context& ctx,
                    std::vector<StreamEvent>* out) = 0;

  // Low watermark at `cursor`: every event the source will produce from here
  // on has ts_us >= this value.
  virtual int64_t watermark(const engine::InputSplit& split,
                            uint64_t cursor) = 0;
};

// Deterministic generator: event i has
//   ts(i) = base_ts_us + i * period_us + jitter(seed, i)    (jitter >= 0)
// so events are emitted in index order but out of order in event time by up
// to jitter_us, and the watermark after cursor c is exactly
// base_ts_us + c * period_us. Replay-safe: everything is a pure function of
// (seed, index).
struct GeneratorConfig {
  uint64_t total_events = 0;  // per split; 0 = unbounded (runs until stop)
  int64_t base_ts_us = 0;
  int64_t period_us = 100;  // event-time spacing between indices
  int64_t jitter_us = 0;    // max forward event-time jitter (disorder bound)
  uint64_t seed = 1;
  double events_per_sec = 0;  // wall-clock pacing per split; 0 = unpaced
  // Produces the (key, value) of one event index of `split` (one split per
  // node; split.preferred_node tells the nodes' streams apart). Default: key
  // "k<i % 64>", value "1" on every split (a WordCount-shaped stream).
  std::function<void(const engine::InputSplit& split, uint64_t index,
                     std::string* key, std::string* value)>
      make;
};

class GeneratorSource : public StreamSource {
 public:
  explicit GeneratorSource(GeneratorConfig config);

  bool poll(const engine::InputSplit& split, uint64_t* cursor,
            size_t max_events, engine::Context& ctx,
            std::vector<StreamEvent>* out) override;
  int64_t watermark(const engine::InputSplit& split, uint64_t cursor) override;

  int64_t event_ts(uint64_t index) const;

 private:
  GeneratorConfig config_;
  std::unique_ptr<engine::RateGate> gate_;  // null when unpaced
};

// Tails a newline-delimited file in the node's local store. Lines are
//   <ts_us>\t<key>\t<value>
// (malformed lines are skipped); the cursor is the byte offset of the next
// unread complete line. The watermark trails the max timestamp seen by
// allowed_lateness_us, the source's disorder bound.
struct FileTailConfig {
  std::string path;  // node-local store path (split.path wins when set)
  int64_t allowed_lateness_us = 0;
  size_t max_read_bytes = 64 * 1024;
  bool stop_at_eof = false;  // bounded replay of a closed file
};

class FileTailSource : public StreamSource {
 public:
  explicit FileTailSource(FileTailConfig config) : config_(std::move(config)) {}

  bool poll(const engine::InputSplit& split, uint64_t* cursor,
            size_t max_events, engine::Context& ctx,
            std::vector<StreamEvent>* out) override;
  int64_t watermark(const engine::InputSplit& split, uint64_t cursor) override;

 private:
  FileTailConfig config_;
  int64_t max_ts_ = INT64_MIN;
};

// Adapter: StreamSource -> LoaderFlowlet emitting window-keyed records plus
// punctuation on port 0.
struct SourceOptions {
  WindowSpec window;
  size_t events_per_chunk = 1024;
  // Events between watermark punctuations (each chunk boundary at most).
  uint64_t punctuate_every = 4096;
  std::shared_ptr<StreamStats> stats;
  // Backpressure: when the stream's open-window bytes (StreamStats::
  // window_bytes, maintained by the window operator) exceed this budget, the
  // source pauses briefly instead of emitting - the upper half of the
  // end-to-end chain whose lower half is the engine's outbox / bin-queue
  // credits. 0 disables.
  int64_t window_buffer_budget = 0;
  Duration backpressure_pause = millis(1);
};

class SourceFlowlet : public engine::LoaderFlowlet {
 public:
  SourceFlowlet(std::unique_ptr<StreamSource> source, SourceOptions options);

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override;

 private:
  void punctuate(const engine::InputSplit& split, uint64_t cursor,
                 engine::Context& ctx, bool final_punct);

  std::unique_ptr<StreamSource> source_;
  SourceOptions options_;
  std::vector<StreamEvent> batch_;
  std::string key_buf_;
  uint64_t events_since_punct_ = 0;
  int64_t last_watermark_ = INT64_MIN;
  Counter* ingested_c_ = nullptr;
  Counter* stalls_c_ = nullptr;
};

}  // namespace hamr::stream

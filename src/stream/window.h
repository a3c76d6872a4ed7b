// Event-time windowing operator and the default output sink.
//
// EventWindowFlowlet is a PartialReduceFlowlet whose accumulators are keyed
// by composite (window end, user key) records from SourceFlowlet. It
// implements the engine's windowed-streaming hooks: punctuation records feed
// a per-origin watermark map, and when every expected origin has reported,
// the aligned minimum arms the runtime's close barrier. Closed windows leave
// the FlatAccTable exactly once - the mid-stream close drains them out of
// the table, the finish path emits only what remains - and travel downstream
// through the sequence-numbered reliable shuffle like any other records.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "engine/flowlet.h"
#include "stream/stream.h"

namespace hamr::stream {

// Folds one event's value into the accumulator of its (window, user key).
using WindowFold = std::function<void(
    std::string_view user_key, std::string_view value, std::string& acc)>;

struct WindowOptions {
  // Distinct punctuation origins the operator must hear from before the
  // watermark advances - one per source split (the stream service sets this
  // to the cluster size: one split per node).
  uint32_t expected_origins = 1;
  std::shared_ptr<StreamStats> stats;
};

class EventWindowFlowlet : public engine::PartialReduceFlowlet {
 public:
  EventWindowFlowlet(WindowFold fold, WindowOptions options)
      : fold_(std::move(fold)), options_(std::move(options)) {}

  void fold(std::string_view key, std::string_view value,
            std::string& acc) override;
  void emit_result(std::string_view key, std::string_view acc,
                   engine::Context& ctx) override;

  bool stream_windowed() const override { return true; }
  bool is_punctuation(std::string_view key) const override {
    return is_punctuation_key(key);
  }
  int64_t on_punctuation(std::string_view key, std::string_view value) override;
  int64_t window_end_of(std::string_view key) const override {
    return window_key_end(key);
  }
  void on_bin_folded(int64_t grown_bytes, std::vector<int64_t>* opened) override;

 private:
  WindowFold fold_;
  WindowOptions options_;
  std::mutex mu_;
  std::map<uint32_t, int64_t> origin_watermarks_;
  int64_t aligned_ = INT64_MIN;
  std::set<int64_t> open_ends_;
  std::vector<int64_t> opened_;  // drained by on_bin_folded
};

// Default sink: buffers final (window, key) -> value records per node and
// writes them sorted to `<dir>/node<id>` in the node's local store on
// finish. A key emitted more than once concatenates its values with ';', so
// any duplicate emission is visible in the output bytes (the chaos tests'
// exactly-once probe).
class WindowFileSink : public engine::MapFlowlet {
 public:
  explicit WindowFileSink(std::string dir = "stream/out")
      : dir_(std::move(dir)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override;
  void finish(engine::Context& ctx) override;

  static std::string node_path(const std::string& dir, uint32_t node) {
    return dir + "/node" + std::to_string(node);
  }
  // Concatenates every node's sink file in node order (deterministic).
  static std::string read_all(cluster::Cluster& cluster, const std::string& dir);

 private:
  std::string dir_;
  std::mutex mu_;
  std::map<std::string, std::string> out_;
};

}  // namespace hamr::stream

// Fused flowlet bodies: what the fusion passes lower a producer+map pair to.
//
// Fusing map M into its producer P replaces two flowlets (and the bin hop
// between them) with one: P's port-0 emissions are redirected straight into
// M::process() on the same task, and M's emissions leave through the real
// Context - so M's out-ports become the fused flowlet's out-ports. The
// passes only fuse across edges where this is semantics-preserving: local,
// untapped, non-combine, partitioner-free, single-out producer, single-in
// consumer (see passes.h).
//
// Wrappers exist for each producer kind (loader / map / reduce / partial
// reduce); chains of three or more collapse by wrapping wrappers.
#pragma once

#include <memory>

#include "engine/flowlet.h"
#include "ir/ir.h"

namespace hamr::ir {

// Context adapter handed to a fused producer: port-0 emissions run the
// fused-in consumer map inline; everything else forwards to the real
// context. Stack-allocated per task call, so concurrent bins each get their
// own (the consumer map must tolerate concurrent process() calls - already
// the MapFlowlet contract).
class FusedEmit : public engine::Context {
 public:
  FusedEmit(engine::Context& outer, engine::MapFlowlet& consumer)
      : outer_(outer), consumer_(consumer) {}

  void emit(uint32_t port, std::string_view key,
            std::string_view value) override;
  void emit_to_node(uint32_t port, engine::NodeId node, std::string_view key,
                    std::string_view value) override;
  void emit_broadcast(uint32_t port, std::string_view key,
                      std::string_view value) override;

  engine::NodeId node() const override { return outer_.node(); }
  uint32_t num_nodes() const override { return outer_.num_nodes(); }
  // The producer was fused because it had exactly one out-port.
  uint32_t num_out_ports() const override { return 1; }
  kv::KvStore& kv() override { return outer_.kv(); }
  storage::FileStore& local_store() override { return outer_.local_store(); }
  Metrics& metrics() override { return outer_.metrics(); }
  bool stream_stopping() const override { return outer_.stream_stopping(); }

 private:
  engine::Context& outer_;
  engine::MapFlowlet& consumer_;
};

class FusedLoader : public engine::LoaderFlowlet {
 public:
  FusedLoader(std::unique_ptr<engine::LoaderFlowlet> producer,
              std::unique_ptr<engine::MapFlowlet> consumer)
      : producer_(std::move(producer)), consumer_(std::move(consumer)) {}

  void start(engine::Context& ctx) override;
  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override;
  void finish(engine::Context& ctx) override;

 private:
  std::unique_ptr<engine::LoaderFlowlet> producer_;
  std::unique_ptr<engine::MapFlowlet> consumer_;
};

class FusedMap : public engine::MapFlowlet {
 public:
  FusedMap(std::unique_ptr<engine::MapFlowlet> producer,
           std::unique_ptr<engine::MapFlowlet> consumer)
      : producer_(std::move(producer)), consumer_(std::move(consumer)) {}

  void start(engine::Context& ctx) override;
  void process(const engine::KvPair& record, engine::Context& ctx) override;
  void finish(engine::Context& ctx) override;

 private:
  std::unique_ptr<engine::MapFlowlet> producer_;
  std::unique_ptr<engine::MapFlowlet> consumer_;
};

class FusedReduce : public engine::ReduceFlowlet {
 public:
  FusedReduce(std::unique_ptr<engine::ReduceFlowlet> producer,
              std::unique_ptr<engine::MapFlowlet> consumer)
      : producer_(std::move(producer)), consumer_(std::move(consumer)) {}

  void start(engine::Context& ctx) override;
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Context& ctx) override;
  void finish(engine::Context& ctx) override;

 private:
  std::unique_ptr<engine::ReduceFlowlet> producer_;
  std::unique_ptr<engine::MapFlowlet> consumer_;
};

class FusedPartialReduce : public engine::PartialReduceFlowlet {
 public:
  FusedPartialReduce(std::unique_ptr<engine::PartialReduceFlowlet> producer,
                     std::unique_ptr<engine::MapFlowlet> consumer)
      : producer_(std::move(producer)), consumer_(std::move(consumer)) {}

  void start(engine::Context& ctx) override;
  void fold(std::string_view key, std::string_view value,
            std::string& acc) override {
    producer_->fold(key, value, acc);
  }
  void emit_result(std::string_view key, std::string_view acc,
                   engine::Context& ctx) override;
  void finish(engine::Context& ctx) override;

  // Event-time windowing hooks forward to the producer so a windowed partial
  // reduce keeps its semantics if a map is ever fused below it.
  bool stream_windowed() const override { return producer_->stream_windowed(); }
  bool is_punctuation(std::string_view key) const override {
    return producer_->is_punctuation(key);
  }
  int64_t on_punctuation(std::string_view key,
                         std::string_view value) override {
    return producer_->on_punctuation(key, value);
  }
  int64_t window_end_of(std::string_view key) const override {
    return producer_->window_end_of(key);
  }
  void on_bin_folded(int64_t grown_bytes, std::vector<int64_t>* opened) override {
    producer_->on_bin_folded(grown_bytes, opened);
  }

 private:
  std::unique_ptr<engine::PartialReduceFlowlet> producer_;
  std::unique_ptr<engine::MapFlowlet> consumer_;
};

// Factory for the fused flowlet replacing producer (of IR kind
// `producer_kind`) + consumer map. The consumer factory must build a
// MapFlowlet (kMap/kSink lower to maps); the producer factory must build the
// engine kind matching `producer_kind`.
engine::FlowletFactory fuse_factories(NodeKind producer_kind,
                                      engine::FlowletFactory producer,
                                      engine::FlowletFactory consumer);

}  // namespace hamr::ir

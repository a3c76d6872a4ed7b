// Unit + property tests for the HAMR engine itself: graph validation, bins,
// scheduling semantics (partial vs full reduce, completion, spill, flow
// control, routing modes, streaming), and multi-job reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "engine/engine.h"
#include "engine/loaders.h"
#include "engine/rate_gate.h"
#include "obs/event_log.h"
#include "serde/serde.h"

using namespace hamr;
using namespace hamr::engine;

namespace {

struct Env {
  explicit Env(uint32_t nodes, EngineConfig config = EngineConfig::fast())
      : cluster(cluster::ClusterConfig::fast(nodes)),
        engine(cluster, config) {}

  cluster::Cluster cluster;
  Engine engine;
};

// Loader that synthesizes `user_tag` records per split: key "k<i>", value "v<i>".
class SyntheticLoader : public LoaderFlowlet {
 public:
  explicit SyntheticLoader(uint64_t per_chunk = 64) : per_chunk_(per_chunk) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
    const uint64_t end = std::min(split.user_tag, *cursor + per_chunk_);
    for (uint64_t i = *cursor; i < end; ++i) {
      const uint64_t id = split.offset + i;
      ctx.emit(0, "k" + std::to_string(id), "v" + std::to_string(id));
    }
    *cursor = end;
    return end < split.user_tag;
  }

 private:
  uint64_t per_chunk_;
};

// Sink that records everything it receives (as a map flowlet).
class CollectorMap : public MapFlowlet {
 public:
  // Node-shared collection across instances via a static registry keyed by a
  // test-provided tag would be overkill; instead write to the local store.
  void process(const KvPair& record, Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    lines_ += std::string(record.key) + "\t" + std::string(record.value) + "\n";
    (void)ctx;
  }
  void finish(Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    ctx.local_store().write_file("test/collected_node" + std::to_string(ctx.node()),
                                 lines_);
  }

 private:
  std::mutex mu_;
  std::string lines_;
};

class CollectorReduce : public ReduceFlowlet {
 public:
  void reduce(std::string_view, const std::vector<std::string_view>&,
              Context&) override {}
};

std::multiset<std::string> collected(cluster::Cluster& cluster) {
  std::multiset<std::string> out;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    for (const auto& path : cluster.node(n).store().list("test/collected_node")) {
      auto data = cluster.node(n).store().read_file(path);
      const std::string& text = *data.value();
      size_t pos = 0;
      while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        if (eol > pos) out.insert(text.substr(pos, eol - pos));
        pos = eol + 1;
      }
    }
  }
  return out;
}

JobInputs synthetic_inputs(uint32_t loader, uint32_t nodes, uint64_t per_node) {
  JobInputs inputs;
  for (uint32_t n = 0; n < nodes; ++n) {
    InputSplit split;
    split.offset = n * per_node;  // id base
    split.user_tag = per_node;    // record count
    split.preferred_node = n;
    inputs.add(loader, split);
  }
  return inputs;
}

}  // namespace

// --- graph validation -----------------------------------------------------------

TEST(FlowletGraph, ValidatesAcyclic) {
  FlowletGraph g;
  auto a = g.add_map("a", [] { return std::make_unique<CollectorMap>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  g.connect(a, b);
  g.connect(b, a);
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(FlowletGraph, LoaderWithInputsRejected) {
  FlowletGraph g;
  auto m = g.add_map("m", [] { return std::make_unique<CollectorMap>(); });
  auto l = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  g.connect(m, l);
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(FlowletGraph, CombineIntoNonPartialReduceRejected) {
  FlowletGraph g;
  auto a = g.add_map("a", [] { return std::make_unique<CollectorMap>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  EdgeOptions options;
  options.combine = true;
  g.connect(a, b, options);
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(FlowletGraph, TopologicalOrderRespectsEdges) {
  FlowletGraph g;
  auto a = g.add_loader("a", [] { return std::make_unique<SyntheticLoader>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  auto c = g.add_map("c", [] { return std::make_unique<CollectorMap>(); });
  g.connect(a, b);
  g.connect(a, c);
  g.connect(b, c);
  const auto order = g.topological_order();
  auto pos = [&](FlowletId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(b), pos(c));
}

TEST(FlowletGraph, PortsNumberedInConnectOrder) {
  FlowletGraph g;
  auto a = g.add_map("a", [] { return std::make_unique<CollectorMap>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  auto c = g.add_map("c", [] { return std::make_unique<CollectorMap>(); });
  const auto e0 = g.connect(a, b);
  const auto e1 = g.connect(a, c);
  EXPECT_EQ(g.edge(e0).src_port, 0u);
  EXPECT_EQ(g.edge(e1).src_port, 1u);
  EXPECT_EQ(g.flowlet(a).out_edges[1], e1);
}

// --- bins -------------------------------------------------------------------------

TEST(Bin, BuilderViewRoundTrip) {
  BinBuilder builder(7, 3);
  builder.add("k1", "v1");
  builder.add("", "");
  builder.add("k3", std::string(1000, 'x'));
  EXPECT_EQ(builder.records(), 3u);
  const std::string bin = builder.take();
  EXPECT_TRUE(builder.empty());  // reset for reuse

  BinView view(bin);
  EXPECT_EQ(view.job_epoch(), 7u);
  EXPECT_EQ(view.edge(), 3u);
  EXPECT_EQ(view.records(), 3u);
  KvPair record;
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.key, "k1");
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.key, "");
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.value.size(), 1000u);
  EXPECT_FALSE(view.next(&record));
  view.rewind();
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.key, "k1");
}

TEST(Bin, MalformedBinThrows) {
  EXPECT_THROW(BinView(std::string_view("\xff")), serde::DecodeError);
  // An edge id wider than EdgeId: epoch 1, edge 2^32, count 0.
  std::string wide_edge;
  serde::put_varint(wide_edge, 1);
  serde::put_varint(wide_edge, uint64_t{1} << 32);
  serde::put_varint(wide_edge, 0);
  EXPECT_THROW(BinView{wide_edge}, serde::DecodeError);
}

// --- RateGate --------------------------------------------------------------------

TEST(RateGate, DisabledIsFree) {
  RateGate gate(0);
  Stopwatch w;
  gate.charge(1000000);
  EXPECT_LT(w.elapsed_seconds(), 0.01);
  EXPECT_FALSE(gate.enabled());
}

TEST(RateGate, ChargesAtConfiguredRate) {
  RateGate gate(10000);  // 10k ops/s
  Stopwatch w;
  gate.charge(500);  // 50 ms
  EXPECT_GE(w.elapsed_seconds(), 0.045);
}

TEST(RateGate, SerializesConcurrentCallers) {
  RateGate gate(10000);
  Stopwatch w;
  std::thread t1([&] { gate.charge(250); });
  std::thread t2([&] { gate.charge(250); });
  t1.join();
  t2.join();
  EXPECT_GE(w.elapsed_seconds(), 0.045);  // 500 ops serialized
}

// --- end-to-end engine semantics ---------------------------------------------------

TEST(Engine, LoaderToMapDeliversAllRecords) {
  Env env(4);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 4, 100));
  EXPECT_EQ(result.metrics.counter("engine.records"), 400u);

  const auto got = collected(env.cluster);
  EXPECT_EQ(got.size(), 400u);
  EXPECT_EQ(got.count("k0\tv0"), 1u);
  EXPECT_EQ(got.count("k399\tv399"), 1u);
}

// Loads like SyntheticLoader, but node 0's first chunk first sends node 1
// four engine messages that node 1 must log and drop: a control body cut
// short after the epoch, a COMPLETE (kind 1) naming a flowlet the job does
// not have, a bin for an edge the job does not have, and a bin whose edge
// id 2^32 would alias edge 0 if narrowed unchecked. A fresh engine's first
// job runs at epoch 1. Node 0's own bins and COMPLETE follow on the same
// link, so node 1 receives all four while the job runs.
class MalformedMessageLoader : public SyntheticLoader {
 public:
  MalformedMessageLoader(cluster::Cluster* cluster, std::atomic<bool>* sent)
      : cluster_(cluster), sent_(sent) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
    if (ctx.node() == 0 && !sent_->exchange(true)) {
      net::Endpoint* ep = cluster_->node(0).router().endpoint();
      std::string epoch_only;
      serde::put_varint(epoch_only, 1);
      ep->send(1, net::msg_type::kEngineControl, epoch_only);
      std::string unknown_flowlet = epoch_only;
      serde::put_varint(unknown_flowlet, 1);
      serde::put_varint(unknown_flowlet, 99);
      ep->send(1, net::msg_type::kEngineControl, unknown_flowlet);
      BinBuilder bin(1, 99);
      bin.add("k", "v");
      ep->send(1, net::msg_type::kEngineBin, bin.take());
      std::string wide_edge = epoch_only;
      serde::put_varint(wide_edge, uint64_t{1} << 32);
      serde::put_varint(wide_edge, 1);  // record count
      serde::put_varint(wide_edge, 1);
      wide_edge += "k";
      serde::put_varint(wide_edge, 1);
      wide_edge += "v";
      ep->send(1, net::msg_type::kEngineBin, wide_edge);
    }
    return SyntheticLoader::load_chunk(split, cursor, ctx);
  }

 private:
  cluster::Cluster* cluster_;
  std::atomic<bool>* sent_;
};

TEST(Engine, MalformedControlAndBinMessagesAreDropped) {
  Env env(4);
  std::atomic<bool> sent{false};
  FlowletGraph g;
  auto loader = g.add_loader("l", [&] {
    return std::make_unique<MalformedMessageLoader>(&env.cluster, &sent);
  });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 4, 100));
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(result.metrics.counter("engine.records"), 400u);

  const auto got = collected(env.cluster);
  EXPECT_EQ(got.size(), 400u);
  for (uint32_t i = 0; i < 400; ++i) {
    const std::string id = std::to_string(i);
    EXPECT_EQ(got.count("k" + id + "\tv" + id), 1u) << id;
  }
}

// A bin for the job's real edge 0 from a fresh engine's first job (epoch 1)
// whose header is valid and which claims `valid + 1` records: `valid` whole
// records ("cut<i>", "c<i>"), then one whose key length runs past the end of
// the bin.
std::string bin_cut_short_after(uint32_t valid) {
  std::string bin;
  serde::put_varint(bin, 1);          // epoch
  serde::put_varint(bin, 0);          // edge 0: the loader's out-edge
  serde::put_varint(bin, valid + 1);  // record count
  for (uint32_t i = 0; i < valid; ++i) {
    const std::string key = "cut" + std::to_string(i);
    const std::string value = "c" + std::to_string(i);
    serde::put_varint(bin, key.size());
    bin += key;
    serde::put_varint(bin, value.size());
    bin += value;
  }
  serde::put_varint(bin, 100);  // key length, but one byte follows
  bin += "k";
  return bin;
}

// Loads like SyntheticLoader, but node 0's first chunk first sends node 1
// `bin`. The worker that processes it must log the malformed record and drop
// the rest of the bin, not abort the process.
class TruncatedBinLoader : public SyntheticLoader {
 public:
  TruncatedBinLoader(cluster::Cluster* cluster, std::atomic<bool>* sent,
                     std::string bin)
      : cluster_(cluster), sent_(sent), bin_(std::move(bin)) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
    if (ctx.node() == 0 && !sent_->exchange(true)) {
      cluster_->node(0).router().endpoint()->send(1, net::msg_type::kEngineBin,
                                                   bin_);
    }
    return SyntheticLoader::load_chunk(split, cursor, ctx);
  }

 private:
  cluster::Cluster* cluster_;
  std::atomic<bool>* sent_;
  std::string bin_;
};

TEST(Engine, BinWithATruncatedRecordIsDroppedAndTheJobFinishes) {
  Env env(4);
  std::atomic<bool> sent{false};
  FlowletGraph g;
  auto loader = g.add_loader("l", [&] {
    return std::make_unique<TruncatedBinLoader>(&env.cluster, &sent,
                                                bin_cut_short_after(0));
  });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 4, 100));
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(result.metrics.counter("engine.records"), 400u);

  const auto got = collected(env.cluster);
  EXPECT_EQ(got.size(), 400u);
  for (uint32_t i = 0; i < 400; ++i) {
    const std::string id = std::to_string(i);
    EXPECT_EQ(got.count("k" + id + "\tv" + id), 1u) << id;
  }
}

// The sink holds every synthetic record plus the `valid` records that
// preceded the malformed one, each exactly once.
void expect_records_and_prefix(const std::multiset<std::string>& got,
                               uint32_t valid) {
  EXPECT_EQ(got.size(), 400u + valid);
  for (uint32_t i = 0; i < 400; ++i) {
    const std::string id = std::to_string(i);
    EXPECT_EQ(got.count("k" + id + "\tv" + id), 1u) << id;
  }
  for (uint32_t i = 0; i < valid; ++i) {
    const std::string id = std::to_string(i);
    EXPECT_EQ(got.count("cut" + id + "\tc" + id), 1u) << "prefix record " << id;
  }
}

TEST(Engine, FoldEdgeKeepsAndCountsTheValidPrefixOfABinCutShort) {
  class AppendPartial : public PartialReduceFlowlet {
   public:
    void fold(std::string_view, std::string_view value, std::string& acc) override {
      acc.append(value);
    }
  };
  Env env(4);
  std::atomic<bool> sent{false};
  FlowletGraph g;
  auto loader = g.add_loader("l", [&] {
    return std::make_unique<TruncatedBinLoader>(&env.cluster, &sent,
                                                bin_cut_short_after(3));
  });
  auto fold = g.add_partial_reduce(
      "fold", [] { return std::make_unique<AppendPartial>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, fold);
  g.connect(fold, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 4, 100));
  EXPECT_TRUE(sent.load());
  // The three records before the malformed one were folded and counted.
  EXPECT_EQ(result.metrics.counter("engine.folds"), 403u);
  // 400 loaded records plus 403 emitted accumulators.
  EXPECT_EQ(result.metrics.counter("engine.records"), 803u);
  expect_records_and_prefix(collected(env.cluster), 3);
}

TEST(Engine, ReduceEdgeKeepsAndCountsTheValidPrefixOfABinCutShort) {
  class ForwardReduce : public ReduceFlowlet {
   public:
    void reduce(std::string_view key, const std::vector<std::string_view>& values,
                Context& ctx) override {
      for (const std::string_view v : values) ctx.emit(0, key, v);
    }
  };
  Env env(4);
  std::atomic<bool> sent{false};
  FlowletGraph g;
  auto loader = g.add_loader("l", [&] {
    return std::make_unique<TruncatedBinLoader>(&env.cluster, &sent,
                                                bin_cut_short_after(2));
  });
  auto red = g.add_reduce("r", [] { return std::make_unique<ForwardReduce>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, red);
  g.connect(red, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 4, 100));
  EXPECT_TRUE(sent.load());
  // The two records before the malformed one were staged and reduced: 400
  // loaded records plus 402 forwarded by the reduce.
  EXPECT_EQ(result.metrics.counter("engine.records"), 802u);
  expect_records_and_prefix(collected(env.cluster), 2);
}

TEST(Engine, KeyRoutingSendsEachKeyToOneNode) {
  Env env(4);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);  // default: key-hash routing
  env.engine.run(g, synthetic_inputs(loader, 4, 50));

  // Every record with the same key landed on exactly the partition node.
  for (uint32_t n = 0; n < 4; ++n) {
    auto data = env.cluster.node(n).store().read_file("test/collected_node" +
                                                      std::to_string(n));
    if (!data.ok()) continue;
    size_t pos = 0;
    const std::string& text = *data.value();
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string_view line = std::string_view(text).substr(pos, eol - pos);
      const auto key = line.substr(0, line.find('\t'));
      EXPECT_EQ(partition_of(key, 4), n) << line;
      pos = eol + 1;
    }
  }
}

TEST(Engine, ReduceGroupsAllValuesOfKey) {
  Env env(3);
  // Loader emits k<i mod 10> so each key has many values.
  class ModLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      for (uint64_t i = 0; i < split.user_tag; ++i) {
        ctx.emit(0, "k" + std::to_string(i % 10), "x");
      }
      (void)cursor;
      return false;
    }
  };
  class CountingReduce : public ReduceFlowlet {
   public:
    void reduce(std::string_view key, const std::vector<std::string_view>& values,
                Context& ctx) override {
      std::lock_guard<std::mutex> lock(mu_);
      lines_ += std::string(key) + "\t" + std::to_string(values.size()) + "\n";
      (void)ctx;
    }
    void finish(Context& ctx) override {
      ctx.local_store().write_file("test/collected_node" + std::to_string(ctx.node()),
                                   lines_);
    }

   private:
    std::mutex mu_;
    std::string lines_;
  };

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<ModLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<CountingReduce>(); });
  g.connect(loader, red);
  JobInputs inputs;
  for (uint32_t n = 0; n < 3; ++n) {
    InputSplit split;
    split.user_tag = 100;
    split.preferred_node = n;
    inputs.add(loader, split);
  }
  env.engine.run(g, inputs);

  const auto got = collected(env.cluster);
  ASSERT_EQ(got.size(), 10u);  // one line per key: grouping collected all
  for (const std::string& line : got) {
    EXPECT_NE(line.find("\t30"), std::string::npos) << line;  // 3 nodes x 10 each
  }
}

TEST(Engine, ReduceSpillsUnderMemoryPressureAndStaysCorrect) {
  EngineConfig config = EngineConfig::fast();
  config.memory_budget_bytes = 8 * 1024;  // force spills
  Env env(2, config);

  class BigValueLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      const uint64_t end = std::min(split.user_tag, *cursor + 16);
      for (uint64_t i = *cursor; i < end; ++i) {
        ctx.emit(0, "key" + std::to_string(i % 7), std::string(512, 'v'));
      }
      *cursor = end;
      return end < split.user_tag;
    }
  };
  class SizeReduce : public ReduceFlowlet {
   public:
    void reduce(std::string_view key, const std::vector<std::string_view>& values,
                Context& ctx) override {
      for (const auto& v : values) EXPECT_EQ(v.size(), 512u);
      std::lock_guard<std::mutex> lock(mu_);
      lines_ += std::string(key) + "\t" + std::to_string(values.size()) + "\n";
      (void)ctx;
    }
    void finish(Context& ctx) override {
      ctx.local_store().write_file("test/collected_node" + std::to_string(ctx.node()),
                                   lines_);
    }

   private:
    std::mutex mu_;
    std::string lines_;
  };

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<BigValueLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<SizeReduce>(); });
  g.connect(loader, red);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 2, 200));
  EXPECT_GT(result.metrics.counter("engine.spill_bytes"), 0u)
      << "expected the memory budget to force spills";

  uint64_t total = 0;
  for (const std::string& line : collected(env.cluster)) {
    total += std::stoull(line.substr(line.find('\t') + 1));
  }
  EXPECT_EQ(total, 400u);
}

// --- spill-run cleanup --------------------------------------------------------

namespace {

// 512-byte values under `user_tag` records per split: far past an 8 KB
// staging budget, so the reduce stages spill.
class SpillingLoader : public LoaderFlowlet {
 public:
  bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
    const uint64_t end = std::min(split.user_tag, *cursor + 16);
    for (uint64_t i = *cursor; i < end; ++i) {
      ctx.emit(0, "key" + std::to_string(i % 64), std::string(512, 'v'));
    }
    *cursor = end;
    return end < split.user_tag;
  }
};

class DiscardReduce : public ReduceFlowlet {
 public:
  void reduce(std::string_view, const std::vector<std::string_view>&,
              Context&) override {}
};

// Spill-run files left in any node's store under `prefix`.
size_t files_under(cluster::Cluster& cluster, const std::string& prefix) {
  size_t files = 0;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    files += cluster.node(n).store().list(prefix).size();
  }
  return files;
}

// Forwards records to the reduce. Its finish() - which runs before the
// reduce can fire - waits until some node's reduce has written a spill run,
// then cancels the job, so the reduce stages meet the cancel holding runs.
class CancelAfterSpillMap : public MapFlowlet {
 public:
  CancelAfterSpillMap(Engine* engine, cluster::Cluster* cluster,
                      std::atomic<bool>* saw_spill)
      : engine_(engine), cluster_(cluster), saw_spill_(saw_spill) {}

  void process(const KvPair& record, Context& ctx) override {
    ctx.emit(0, record.key, record.value);
  }
  void finish(Context&) override {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (files_under(*cluster_, "engine/spill/") == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (files_under(*cluster_, "engine/spill/") > 0) saw_spill_->store(true);
    engine_->request_cancel();
  }

 private:
  Engine* engine_;
  cluster::Cluster* cluster_;
  std::atomic<bool>* saw_spill_;
};

}  // namespace

TEST(Engine, CompletedReduceDeletesItsSpillRuns) {
  EngineConfig config = EngineConfig::fast();
  config.memory_budget_bytes = 8 * 1024;
  Env env(2, config);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SpillingLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<DiscardReduce>(); });
  g.connect(loader, red);
  const JobResult result = env.engine.run(g, synthetic_inputs(loader, 2, 400));
  ASSERT_FALSE(result.cancelled);
  ASSERT_GT(result.metrics.counter("sort.spill_runs"), 0u) << "expected spills";
  EXPECT_EQ(files_under(env.cluster, "engine/spill/"), 0u);
}

TEST(Engine, CancelledReduceDeletesItsSpillRuns) {
  EngineConfig config = EngineConfig::fast();
  config.memory_budget_bytes = 8 * 1024;
  Env env(2, config);
  std::atomic<bool> saw_spill{false};
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SpillingLoader>(); });
  auto gate = g.add_map("cancel", [&] {
    return std::make_unique<CancelAfterSpillMap>(&env.engine, &env.cluster,
                                                 &saw_spill);
  });
  auto red = g.add_reduce("r", [] { return std::make_unique<DiscardReduce>(); });
  g.connect(loader, gate);
  g.connect(gate, red);
  const JobResult result = env.engine.run(g, synthetic_inputs(loader, 2, 400));
  ASSERT_TRUE(saw_spill.load()) << "no spill run appeared before the cancel";
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(files_under(env.cluster, "engine/spill/"), 0u);
}

TEST(Engine, PartialReduceEmitsOnceOnCompletion) {
  Env env(2);
  class SumPartial : public PartialReduceFlowlet {
   public:
    void fold(std::string_view, std::string_view value, std::string& acc) override {
      const uint64_t prev = acc.empty() ? 0 : std::stoull(acc);
      acc = std::to_string(prev + std::stoull(std::string(value)));
    }
  };

  FlowletGraph g;
  class OneKeyLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      for (uint64_t i = 0; i < split.user_tag; ++i) ctx.emit(0, "total", "1");
      (void)cursor;
      return false;
    }
  };
  auto loader = g.add_loader("l", [] { return std::make_unique<OneKeyLoader>(); });
  auto partial = g.add_partial_reduce("p", [] { return std::make_unique<SumPartial>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, partial);
  g.connect(partial, sink);
  env.engine.run(g, synthetic_inputs(loader, 2, 500));

  const auto got = collected(env.cluster);
  ASSERT_EQ(got.size(), 1u);  // exactly one emission for the single key
  EXPECT_EQ(*got.begin(), "total\t1000");
}

TEST(Engine, EmitToNodeAndBroadcast) {
  Env env(4);
  class DirectedLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      (void)cursor;
      if (split.preferred_node == 0) {
        ctx.emit_to_node(0, 2, "direct", "to-node-2");
        ctx.emit_broadcast(0, "bcast", "everywhere");
      }
      return false;
    }
  };
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<DirectedLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(g, synthetic_inputs(loader, 4, 1));

  // direct record only on node 2; broadcast on all 4 nodes.
  for (uint32_t n = 0; n < 4; ++n) {
    auto data = env.cluster.node(n).store().read_file("test/collected_node" +
                                                      std::to_string(n));
    const std::string text = data.ok() ? *data.value() : "";
    EXPECT_EQ(text.find("direct") != std::string::npos, n == 2) << "node " << n;
    EXPECT_NE(text.find("bcast"), std::string::npos) << "node " << n;
  }
}

TEST(Engine, FlowControlStallsLoadersButCompletes) {
  EngineConfig config = EngineConfig::fast();
  config.flow_control_high_bytes = 2 * 1024;  // tiny watermark
  config.bin_size_bytes = 512;
  Env env(2, config);

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(16); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 2, 3000));
  EXPECT_EQ(collected(env.cluster).size(), 6000u);
  EXPECT_GT(result.metrics.counter("engine.stalls"), 0u);
}

TEST(Engine, FlowControlDisabledNeverStalls) {
  EngineConfig config = EngineConfig::fast();
  config.flow_control_high_bytes = 1;  // would trip constantly...
  config.flow_control_enabled = false;  // ...but it is off
  Env env(2, config);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 2, 500));
  EXPECT_EQ(result.metrics.counter("engine.stalls"), 0u);
  EXPECT_EQ(collected(env.cluster).size(), 1000u);
}

TEST(Engine, MultipleJobsReuseEngine) {
  Env env(2);
  for (int round = 0; round < 3; ++round) {
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
    g.connect(loader, sink);
    env.engine.run(g, synthetic_inputs(loader, 2, 100 * (round + 1)));
    EXPECT_EQ(collected(env.cluster).size(), 200u * (round + 1)) << round;
  }
}

TEST(Engine, FanInAndFanOutGraph) {
  Env env(3);
  FlowletGraph g;
  auto l1 = g.add_loader("l1", [] { return std::make_unique<SyntheticLoader>(); });
  auto l2 = g.add_loader("l2", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(l1, sink);
  g.connect(l2, sink);

  JobInputs inputs;
  InputSplit s1;
  s1.offset = 0;
  s1.user_tag = 50;
  s1.preferred_node = 0;
  inputs.add(l1, s1);
  InputSplit s2;
  s2.offset = 1000;
  s2.user_tag = 70;
  s2.preferred_node = 1;
  inputs.add(l2, s2);
  env.engine.run(g, inputs);
  EXPECT_EQ(collected(env.cluster).size(), 120u);
}

TEST(Engine, EmptyInputCompletes) {
  Env env(2);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<CollectorReduce>(); });
  g.connect(loader, red);
  JobInputs inputs;  // no splits at all
  const auto result = env.engine.run(g, inputs);
  EXPECT_EQ(result.metrics.counter("engine.records"), 0u);
}

TEST(Engine, EmitDuringStartThrows) {
  Env env(1);
  class BadStart : public MapFlowlet {
   public:
    void start(Context& ctx) override { ctx.emit(0, "k", "v"); }
    void process(const KvPair&, Context&) override {}
  };
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto bad = g.add_map("bad", [] { return std::make_unique<BadStart>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, bad);
  g.connect(bad, sink);
  EXPECT_THROW(env.engine.run(g, synthetic_inputs(loader, 1, 1)), std::logic_error);
}

TEST(Engine, RunningTwoJobsConcurrentlyRejected) {
  Env env(1);
  // The public contract is one job at a time; verified via the guard flag.
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("s", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(g, synthetic_inputs(loader, 1, 10));  // completes fine
  // (Concurrent-run rejection is covered by the logic_error guard; invoking
  // it concurrently here would race the test itself, so we assert the flag
  // resets by simply running again.)
  env.engine.run(g, synthetic_inputs(loader, 1, 10));
}

namespace {

// Loader that parks inside its first chunk until released (or the engine
// raises the stream-stop flag, which request_cancel does), so tests can hold
// a run in-flight deterministically.
class ParkedLoader : public LoaderFlowlet {
 public:
  ParkedLoader(std::shared_ptr<std::atomic<int>> parked,
               std::shared_ptr<std::atomic<bool>> release)
      : parked_(std::move(parked)), release_(std::move(release)) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor,
                  Context& ctx) override {
    parked_->fetch_add(1);
    while (!release_->load() && !ctx.stream_stopping()) {
      std::this_thread::sleep_for(millis(1));
    }
    for (uint64_t i = 0; i < split.user_tag; ++i) {
      ctx.emit(0, "k" + std::to_string(split.offset + i), "v");
    }
    (void)cursor;
    return false;
  }

 private:
  std::shared_ptr<std::atomic<int>> parked_;
  std::shared_ptr<std::atomic<bool>> release_;
};

struct ParkedRun {
  std::shared_ptr<std::atomic<int>> parked = std::make_shared<std::atomic<int>>(0);
  std::shared_ptr<std::atomic<bool>> release = std::make_shared<std::atomic<bool>>(false);
  FlowletGraph graph;
  FlowletId loader = 0;

  ParkedRun() {
    auto p = parked;
    auto r = release;
    loader = graph.add_loader(
        "parked", [p, r] { return std::make_unique<ParkedLoader>(p, r); });
    auto sink = graph.add_map("s", [] { return std::make_unique<CollectorMap>(); });
    graph.connect(loader, sink);
  }

  void wait_parked() {
    while (parked->load() == 0) std::this_thread::sleep_for(millis(1));
  }
};

}  // namespace

TEST(Engine, SecondRunWhileFirstInFlightThrowsLogicError) {
  Env env(1);
  ParkedRun pr;
  std::thread first([&] {
    env.engine.run(pr.graph, synthetic_inputs(pr.loader, 1, 4));
  });
  pr.wait_parked();
  // The slot is genuinely occupied: a concurrent entry fails loudly instead
  // of corrupting the in-flight job.
  EXPECT_THROW(env.engine.run(pr.graph, synthetic_inputs(pr.loader, 1, 4)),
               std::logic_error);
  pr.release->store(true);
  first.join();
  // ...and the rejection left the running job and the slot intact.
  env.engine.run(pr.graph, synthetic_inputs(pr.loader, 1, 4));
}

TEST(Engine, FailedRunReleasesSlotForNextJob) {
  Env env(1);
  FlowletGraph bad;
  bad.add_loader("broken", nullptr);
  EXPECT_THROW(env.engine.run(bad, JobInputs{}), std::invalid_argument);

  // The guard must release the run slot on the throwing path, or this second
  // run would be rejected as concurrent.
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("s", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const JobResult result = env.engine.run(g, synthetic_inputs(loader, 1, 10));
  EXPECT_FALSE(result.cancelled);
}

TEST(Engine, RequestCancelAbortsRunAndClearsForNextJob) {
  Env env(2);
  env.engine.request_cancel();  // idle engine: safe no-op

  ParkedRun pr;
  JobResult result;
  std::thread run([&] {
    result = env.engine.run(pr.graph, synthetic_inputs(pr.loader, 2, 64));
  });
  pr.wait_parked();
  env.engine.request_cancel();  // never released: only cancel can end it
  run.join();
  EXPECT_TRUE(result.cancelled);

  // The cancel flag does not leak into the next job.
  ParkedRun next;
  next.release->store(true);
  const JobResult clean = env.engine.run(next.graph,
                                         synthetic_inputs(next.loader, 2, 8));
  EXPECT_FALSE(clean.cancelled);
}

// --- event-log ordering invariants ----------------------------------------------
//
// These tests plant an obs::EventLog in the engine config and assert ordering
// properties that hold in EVERY legal schedule (the runtime records each event
// before the atomic transition that makes it causally visible). They contain
// no sleeps and no timing assumptions, so they are deterministic under
// repetition and under sanitizers.

namespace {

EngineConfig logged_config(obs::EventLog* log) {
  EngineConfig config = EngineConfig::fast();
  config.event_log = log;
  return config;
}

}  // namespace

TEST(EngineEventLog, BinsProcessedBeforeFlowletCompletes) {
  obs::EventLog log;
  Env env(4, logged_config(&log));
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(g, synthetic_inputs(loader, 4, 200));

  // Every enqueued bin was processed, per (node, flowlet) stream.
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(log.count(n, sink, obs::EventKind::kBinEnqueued),
              log.count(n, sink, obs::EventKind::kBinProcessed))
        << "node " << n;
    // State machine is monotonic: every kBinProcessed precedes the node's
    // kFlowletReady, which precedes its kFlowletComplete.
    uint64_t ready_seq = 0, complete_seq = 0;
    uint64_t ready_count = 0, complete_count = 0;
    for (const obs::Event& ev : log.stream(n, sink)) {
      if (ev.kind == obs::EventKind::kFlowletReady) {
        ready_seq = ev.seq;
        ++ready_count;
      }
      if (ev.kind == obs::EventKind::kFlowletComplete) {
        complete_seq = ev.seq;
        ++complete_count;
      }
    }
    ASSERT_EQ(ready_count, 1u) << "node " << n;
    ASSERT_EQ(complete_count, 1u) << "node " << n;
    EXPECT_LT(ready_seq, complete_seq) << "node " << n;
    for (const obs::Event& ev : log.stream(n, sink)) {
      if (ev.kind == obs::EventKind::kBinProcessed) {
        EXPECT_LT(ev.seq, ready_seq) << "node " << n;
      }
    }
  }
}

TEST(EngineEventLog, CompletionPropagatesExactlyOnce) {
  obs::EventLog log;
  Env env(3, logged_config(&log));
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(g, synthetic_inputs(loader, 3, 50));

  // Each (node, flowlet) goes Ready -> Complete -> Broadcast exactly once:
  // the finish_scheduled exchange is the only gate into that chain.
  for (uint32_t n = 0; n < 3; ++n) {
    for (FlowletId f : {loader, sink}) {
      EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletReady), 1u)
          << "node " << n << " flowlet " << f;
      EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletComplete), 1u)
          << "node " << n << " flowlet " << f;
      EXPECT_EQ(log.count(n, f, obs::EventKind::kCompleteBroadcast), 1u)
          << "node " << n << " flowlet " << f;
    }
  }
}

TEST(EngineEventLog, SinkFlowletSendsNoCompleteMessages) {
  // Only downstream flowlets count a COMPLETE, so a flowlet with no
  // out-edges logs its one broadcast with 0 destinations and sends nothing.
  obs::EventLog log;
  cluster::Cluster cluster(cluster::ClusterConfig::fast(4));
  {
    Engine engine(cluster, logged_config(&log));
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    engine.run(g, synthetic_inputs(loader, 4, 0));
    for (uint32_t n = 0; n < 4; ++n) {
      const std::vector<obs::Event> events = log.stream(n, loader);
      const auto broadcast = std::find_if(
          events.begin(), events.end(), [](const obs::Event& ev) {
            return ev.kind == obs::EventKind::kCompleteBroadcast;
          });
      ASSERT_NE(broadcast, events.end()) << "node " << n;
      EXPECT_EQ(broadcast->aux, 0) << "node " << n;
    }
  }  // destroying the engine drains every node's outbox
  EXPECT_EQ(cluster.total_counter("net.tx_msgs"), 0u);
}

TEST(EngineEventLog, ReduceFiresAfterAllUpstreamChannelsComplete) {
  obs::EventLog log;
  Env env(3, logged_config(&log));
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<CollectorReduce>(); });
  g.connect(loader, red);
  env.engine.run(g, synthetic_inputs(loader, 3, 100));

  for (uint32_t n = 0; n < 3; ++n) {
    const auto stream = log.stream(n, red);
    // One COMPLETE channel per upstream node, from distinct sources.
    std::set<int64_t> sources;
    uint64_t last_channel_seq = 0;
    uint64_t ready_seq = 0;
    for (const obs::Event& ev : stream) {
      if (ev.kind == obs::EventKind::kChannelComplete) {
        sources.insert(ev.aux);
        last_channel_seq = std::max(last_channel_seq, ev.seq);
      }
      if (ev.kind == obs::EventKind::kFlowletReady) ready_seq = ev.seq;
    }
    EXPECT_EQ(sources.size(), 3u) << "node " << n;
    // The reduce only becomes Ready after the LAST channel completes, and
    // its stage tasks run only after Ready.
    EXPECT_GT(ready_seq, last_channel_seq) << "node " << n;
    for (const obs::Event& ev : stream) {
      if (ev.kind == obs::EventKind::kReduceStageRun) {
        EXPECT_GT(ev.seq, ready_seq) << "node " << n;
      }
    }
  }
}

TEST(EngineEventLog, FlowControlStallsPauseAndResumeSameTask) {
  obs::EventLog log;
  EngineConfig config = logged_config(&log);
  config.flow_control_high_bytes = 2 * 1024;  // tiny watermark: force stalls
  config.bin_size_bytes = 512;
  Env env(2, config);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(16); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(g, synthetic_inputs(loader, 2, 3000));

  const uint64_t begins = log.count(obs::EventKind::kStallBegin);
  ASSERT_GT(begins, 0u) << "watermark too high to trip flow control";
  EXPECT_EQ(begins, log.count(obs::EventKind::kStallEnd));
  EXPECT_EQ(begins, result.metrics.counter("engine.stalls"));

  // Within each (node, loader) stream, stalls pause and resume the SAME
  // task: every StallBegin(tag) is closed by a later StallEnd(tag) before
  // that tag can stall again (defer logs End before re-queuing the task).
  for (uint32_t n = 0; n < 2; ++n) {
    std::multiset<int64_t> open;
    for (const obs::Event& ev : log.stream(n, loader)) {
      if (ev.kind == obs::EventKind::kStallBegin) {
        EXPECT_EQ(open.count(ev.aux), 0u)
            << "task tag " << ev.aux << " stalled twice without resuming";
        open.insert(ev.aux);
      } else if (ev.kind == obs::EventKind::kStallEnd) {
        ASSERT_EQ(open.count(ev.aux), 1u)
            << "StallEnd for tag " << ev.aux << " without open StallBegin";
        open.erase(ev.aux);
      }
    }
    EXPECT_TRUE(open.empty()) << "node " << n << " has unclosed stalls";
  }
}

// --- eight workers per node -----------------------------------------------------
//
// The same four ordering invariants, rerun with 8 workers per node (the
// default test envs use 2): 8 workers popping one shared bin queue, and
// finishing bins out of order, must not reorder any (node, flowlet) event
// stream the completion protocol depends on. Each scenario repeats to give
// interleavings a chance to vary; the invariants are schedule-free, so every
// repetition must hold exactly.

namespace {

constexpr uint32_t kWideWorkers = 8;
constexpr int kWideRepeats = 3;

struct WideEnv {
  explicit WideEnv(uint32_t nodes, EngineConfig config = EngineConfig::fast(),
                   uint64_t ingress_bytes = net::NetConfig{}.ingress_capacity_bytes)
      : cluster(cluster_config(nodes, ingress_bytes)), engine(cluster, config) {}

  static cluster::ClusterConfig cluster_config(uint32_t nodes, uint64_t ingress_bytes) {
    cluster::ClusterConfig c = cluster::ClusterConfig::fast(nodes, kWideWorkers);
    c.net.ingress_capacity_bytes = ingress_bytes;
    return c;
  }

  cluster::Cluster cluster;
  Engine engine;
};

// Sink that, on node `park_node`, parks every record until the EventLog shows
// a flow-control stall. Parked workers stop draining that node's bin queue,
// so its byte budget and ingress fill and the other node's sender blocks:
// the stall is forced rather than left to timing. A 20 s cap turns a stall
// that never comes into a failed assertion instead of a hang.
class ParkUntilStallMap : public CollectorMap {
 public:
  ParkUntilStallMap(const obs::EventLog* log, uint32_t park_node, TimePoint give_up)
      : log_(log), park_node_(park_node), give_up_(give_up) {}

  void process(const KvPair& record, Context& ctx) override {
    while (ctx.node() == park_node_ && log_->count(obs::EventKind::kStallBegin) == 0 &&
           now() < give_up_) {
      std::this_thread::sleep_for(millis(1));
    }
    CollectorMap::process(record, ctx);
  }

 private:
  const obs::EventLog* log_;
  const uint32_t park_node_;
  const TimePoint give_up_;
};

}  // namespace

TEST(EngineStealing, BinsProcessedBeforeFlowletCompletesAtEightWorkers) {
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    WideEnv env(4, logged_config(&log));
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
    g.connect(loader, sink);
    env.engine.run(g, synthetic_inputs(loader, 4, 200));

    for (uint32_t n = 0; n < 4; ++n) {
      EXPECT_EQ(log.count(n, sink, obs::EventKind::kBinEnqueued),
                log.count(n, sink, obs::EventKind::kBinProcessed))
          << "rep " << rep << " node " << n;
      uint64_t ready_seq = 0, complete_seq = 0;
      uint64_t ready_count = 0, complete_count = 0;
      for (const obs::Event& ev : log.stream(n, sink)) {
        if (ev.kind == obs::EventKind::kFlowletReady) {
          ready_seq = ev.seq;
          ++ready_count;
        }
        if (ev.kind == obs::EventKind::kFlowletComplete) {
          complete_seq = ev.seq;
          ++complete_count;
        }
      }
      ASSERT_EQ(ready_count, 1u) << "rep " << rep << " node " << n;
      ASSERT_EQ(complete_count, 1u) << "rep " << rep << " node " << n;
      EXPECT_LT(ready_seq, complete_seq) << "rep " << rep << " node " << n;
      for (const obs::Event& ev : log.stream(n, sink)) {
        if (ev.kind == obs::EventKind::kBinProcessed) {
          EXPECT_LT(ev.seq, ready_seq) << "rep " << rep << " node " << n;
        }
      }
    }
  }
}

TEST(EngineStealing, CompletionPropagatesExactlyOnceAtEightWorkers) {
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    WideEnv env(3, logged_config(&log));
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
    g.connect(loader, sink);
    env.engine.run(g, synthetic_inputs(loader, 3, 50));

    for (uint32_t n = 0; n < 3; ++n) {
      for (FlowletId f : {loader, sink}) {
        EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletReady), 1u)
            << "rep " << rep << " node " << n << " flowlet " << f;
        EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletComplete), 1u)
            << "rep " << rep << " node " << n << " flowlet " << f;
        EXPECT_EQ(log.count(n, f, obs::EventKind::kCompleteBroadcast), 1u)
            << "rep " << rep << " node " << n << " flowlet " << f;
      }
    }
  }
}

TEST(EngineStealing, ReduceFiresAfterAllUpstreamChannelsCompleteAtEightWorkers) {
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    WideEnv env(3, logged_config(&log));
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto red = g.add_reduce("r", [] { return std::make_unique<CollectorReduce>(); });
    g.connect(loader, red);
    env.engine.run(g, synthetic_inputs(loader, 3, 100));

    for (uint32_t n = 0; n < 3; ++n) {
      const auto stream = log.stream(n, red);
      std::set<int64_t> sources;
      uint64_t last_channel_seq = 0;
      uint64_t ready_seq = 0;
      for (const obs::Event& ev : stream) {
        if (ev.kind == obs::EventKind::kChannelComplete) {
          sources.insert(ev.aux);
          last_channel_seq = std::max(last_channel_seq, ev.seq);
        }
        if (ev.kind == obs::EventKind::kFlowletReady) ready_seq = ev.seq;
      }
      EXPECT_EQ(sources.size(), 3u) << "rep " << rep << " node " << n;
      EXPECT_GT(ready_seq, last_channel_seq) << "rep " << rep << " node " << n;
      for (const obs::Event& ev : stream) {
        if (ev.kind == obs::EventKind::kReduceStageRun) {
          EXPECT_GT(ev.seq, ready_seq) << "rep " << rep << " node " << n;
        }
      }
    }
  }
}

TEST(EngineStealing, FlowControlStallsPauseAndResumeSameTaskAtEightWorkers) {
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    EngineConfig config = logged_config(&log);
    config.flow_control_high_bytes = 2 * 1024;
    config.bin_size_bytes = 512;
    // Two bins of receiver budget and ingress: node 1's parked sink pushes
    // backpressure back into node 0's outbox within a few bins.
    config.bin_queue_bytes = 1024;
    WideEnv env(2, config, /*ingress_bytes=*/1024);
    FlowletGraph g;
    const TimePoint give_up = now() + std::chrono::seconds(20);
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(16); });
    auto sink = g.add_map("sink", [&log, give_up] {
      return std::make_unique<ParkUntilStallMap>(&log, /*park_node=*/1, give_up);
    });
    g.connect(loader, sink);
    const auto result = env.engine.run(g, synthetic_inputs(loader, 2, 3000));

    const uint64_t begins = log.count(obs::EventKind::kStallBegin);
    ASSERT_GT(begins, 0u) << "rep " << rep << ": watermark too high";
    EXPECT_EQ(begins, log.count(obs::EventKind::kStallEnd)) << "rep " << rep;
    EXPECT_EQ(begins, result.metrics.counter("engine.stalls"))
        << "rep " << rep;

    for (uint32_t n = 0; n < 2; ++n) {
      std::multiset<int64_t> open;
      for (const obs::Event& ev : log.stream(n, loader)) {
        if (ev.kind == obs::EventKind::kStallBegin) {
          EXPECT_EQ(open.count(ev.aux), 0u)
              << "rep " << rep << " tag " << ev.aux << " stalled twice";
          open.insert(ev.aux);
        } else if (ev.kind == obs::EventKind::kStallEnd) {
          ASSERT_EQ(open.count(ev.aux), 1u)
              << "rep " << rep << " StallEnd for tag " << ev.aux
              << " without open StallBegin";
          open.erase(ev.aux);
        }
      }
      EXPECT_TRUE(open.empty()) << "rep " << rep << " node " << n;
    }
  }
}

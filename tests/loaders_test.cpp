// Tests for the built-in loaders and the engine's streaming path details.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "engine/engine.h"
#include "engine/loaders.h"

using namespace hamr;
using namespace hamr::engine;

namespace {

struct Env {
  explicit Env(uint32_t nodes)
      : cluster(cluster::ClusterConfig::fast(nodes)),
        engine(cluster, EngineConfig::fast()) {}

  cluster::Cluster cluster;
  Engine engine;
};

// Collects (key, value) lines to the local store for post-run inspection.
class Collector : public MapFlowlet {
 public:
  void process(const KvPair& record, Context& ctx) override {
    (void)ctx;
    std::lock_guard<std::mutex> lock(mu_);
    lines_ += std::string(record.key) + "\t" + std::string(record.value) + "\n";
  }
  void finish(Context& ctx) override {
    ctx.local_store().write_file("test/loader_out" + std::to_string(ctx.node()),
                                 lines_);
  }

 private:
  std::mutex mu_;
  std::string lines_;
};

std::vector<std::pair<std::string, std::string>> collect(cluster::Cluster& cluster) {
  std::vector<std::pair<std::string, std::string>> out;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    for (const auto& path : cluster.node(n).store().list("test/loader_out")) {
      const std::string text = *cluster.node(n).store().read_file(path).value();
      size_t pos = 0;
      while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        const size_t tab = line.find('\t');
        if (tab != std::string::npos) {
          out.emplace_back(line.substr(0, tab), line.substr(tab + 1));
        }
        pos = eol + 1;
      }
    }
  }
  return out;
}

}  // namespace

TEST(TextLoader, EmitsEveryLineWithByteOffsets) {
  Env env(2);
  std::string file;
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 100; ++i) {
    offsets.push_back(file.size());
    file += "line_" + std::to_string(i) + "\n";
  }
  env.cluster.node(0).store().write_file("input/f", file);

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<TextLoader>(7); });
  auto sink = g.add_map("sink", [] { return std::make_unique<Collector>(); });
  g.connect(loader, sink, local_edge());

  JobInputs inputs;
  InputSplit split;
  split.path = "input/f";
  split.length = file.size();
  split.preferred_node = 0;
  inputs.add(loader, split);
  env.engine.run(g, inputs);

  auto got = collect(env.cluster);
  ASSERT_EQ(got.size(), 100u);
  std::set<std::string> keys;
  for (const auto& [key, value] : got) {
    keys.insert(key);
    const uint64_t offset = std::stoull(key);
    // The value must be exactly the line found at that offset.
    const size_t eol = file.find('\n', offset);
    EXPECT_EQ(value, file.substr(offset, eol - offset));
  }
  EXPECT_EQ(keys.size(), 100u);  // all offsets distinct
}

TEST(TextLoader, SkipsEmptyLinesAndHandlesMissingTrailingNewline) {
  Env env(1);
  env.cluster.node(0).store().write_file("input/f", "a\n\n\nb\nc");  // no final \n

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<TextLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<Collector>(); });
  g.connect(loader, sink, local_edge());
  JobInputs inputs;
  InputSplit split;
  split.path = "input/f";
  split.length = 7;
  inputs.add(loader, split);
  env.engine.run(g, inputs);

  auto got = collect(env.cluster);
  ASSERT_EQ(got.size(), 3u);
  std::multiset<std::string> values;
  for (auto& [k, v] : got) values.insert(v);
  EXPECT_EQ(values, (std::multiset<std::string>{"a", "b", "c"}));
}

TEST(TextLoader, RespectsSplitRanges) {
  Env env(1);
  // Two splits over one file; split 2 starts exactly at a line boundary.
  const std::string file = "aaaa\nbbbb\ncccc\ndddd\n";
  env.cluster.node(0).store().write_file("input/f", file);

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<TextLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<Collector>(); });
  g.connect(loader, sink, local_edge());
  JobInputs inputs;
  InputSplit s1{"input/f", 0, 10, 0, 0};
  InputSplit s2{"input/f", 10, 10, 0, 0};
  inputs.add(loader, s1);
  inputs.add(loader, s2);
  env.engine.run(g, inputs);

  auto got = collect(env.cluster);
  std::multiset<std::string> values;
  for (auto& [k, v] : got) values.insert(v);
  EXPECT_EQ(values, (std::multiset<std::string>{"aaaa", "bbbb", "cccc", "dddd"}));
}

TEST(Streaming, SourcesStopAndJobDrainsCompletely) {
  Env env(2);
  // Emits a 64-record chunk about once a millisecond until the driver asks
  // streaming to stop.
  class Source : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor,
                    Context& ctx) override {
      if (ctx.stream_stopping()) return false;
      std::this_thread::sleep_for(millis(1));
      const std::string key = "n" + std::to_string(split.preferred_node);
      for (uint64_t i = 0; i < 64; ++i) {
        ctx.emit(0, key, std::to_string(*cursor + i));
      }
      *cursor += 64;
      return true;
    }
  };
  FlowletGraph g;
  auto source = g.add_loader("src", [] { return std::make_unique<Source>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<Collector>(); });
  g.connect(source, sink);
  JobInputs inputs;
  for (uint32_t n = 0; n < 2; ++n) {
    InputSplit split;
    split.preferred_node = n;
    inputs.add(source, split);
  }
  const auto result = env.engine.run_streaming(g, inputs, millis(300));
  // Everything emitted was delivered (no records lost at shutdown).
  EXPECT_EQ(collect(env.cluster).size(),
            result.metrics.counter("engine.records"));
}

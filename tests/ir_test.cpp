// Tests for the typed flowlet IR (src/ir/): verifier rules, the optimizing
// passes, the backend lowering, and the EventLog-measurable effect of fusion
// (fused graphs emit byte-identical output through strictly fewer bin
// dispatches).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/wordcount.h"
#include "engine/engine.h"
#include "engine/graph.h"
#include "ir/ir.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "obs/event_log.h"

namespace hamr {
namespace {

using ir::Graph;
using ir::NodeId;
using ir::NodeKind;

// Structure-only tests never run the flowlets, so a factory that produces
// nothing satisfies the verifier without dragging real operators in.
engine::FlowletFactory stub_factory() {
  return [] { return std::unique_ptr<engine::Flowlet>(); };
}

engine::EdgeOptions hash_attrs() { return {}; }

// --- verifier -------------------------------------------------------------

TEST(IrVerify, AcceptsAWellFormedChain) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory(), {"", "line"});
  const NodeId map = g.add_map("m", stub_factory(), {"", "line"}, {"k", "v"});
  const NodeId sink = g.add_sink("sink", stub_factory(), {"k", "v"});
  g.connect(src, map, engine::local_edge());
  g.connect(map, sink);
  EXPECT_NO_THROW(ir::verify(g));
}

TEST(IrVerify, RejectsTypeMismatchAcrossAnEdge) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory(), {"word", "count"});
  const NodeId sink = g.add_sink("sink", stub_factory(), {"word", "rank"});
  g.connect(src, sink);
  try {
    ir::verify(g);
    FAIL() << "expected type mismatch";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("type mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(IrVerify, EmptyTagComponentIsAWildcard) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory(), {"word", "count"});
  const NodeId sink = g.add_sink("sink", stub_factory(), {"", "count"});
  g.connect(src, sink);
  EXPECT_NO_THROW(ir::verify(g));
}

TEST(IrVerify, RejectsDanglingNode) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  g.connect(src, sink);
  g.add_map("orphan", stub_factory());  // never connected
  try {
    ir::verify(g);
    FAIL() << "expected dangling-node error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos)
        << e.what();
  }
}

TEST(IrVerify, RejectsTapOnCombineEdgeWithClearError) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId comb = g.add_combine("fold", stub_factory());
  g.node(comb).effect = true;
  engine::EdgeOptions attrs;
  attrs.combine = true;
  attrs.tap = [](uint32_t, std::string_view, std::string_view) {};
  g.connect(src, comb, attrs);
  try {
    ir::verify(g);
    FAIL() << "expected tap-on-combine rejection";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tap on combine"), std::string::npos) << what;
    // The message must explain the why and the fix, not just point.
    EXPECT_NE(what.find("fold before routing"), std::string::npos) << what;
    EXPECT_NE(what.find("remove the tap"), std::string::npos) << what;
  }
}

TEST(IrVerify, RejectsCombineEdgeIntoNonCombineNode) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  engine::EdgeOptions attrs;
  attrs.combine = true;
  g.connect(src, sink, attrs);
  EXPECT_THROW(ir::verify(g), std::invalid_argument);
}

TEST(IrVerify, RejectsSplitsOnNonSource) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  g.connect(src, sink);
  g.node(sink).splits.push_back(engine::InputSplit{});
  EXPECT_THROW(ir::verify(g), std::invalid_argument);
}

TEST(IrVerify, RejectsCycle) {
  Graph g;
  const NodeId a = g.add_map("a", stub_factory());
  const NodeId b = g.add_map("b", stub_factory());
  g.connect(a, b);
  g.connect(b, a);
  EXPECT_THROW(ir::verify(g), std::invalid_argument);
}

TEST(IrVerify, RejectsNodeWithoutFactory) {
  Graph g;
  const NodeId src = g.add_source("src", engine::FlowletFactory{});
  const NodeId sink = g.add_sink("sink", stub_factory());
  g.connect(src, sink);
  EXPECT_THROW(ir::verify(g), std::invalid_argument);
}

// --- passes ---------------------------------------------------------------

TEST(IrPasses, FuseMapsCollapsesALocalChain) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory(), {"", "line"});
  const NodeId m1 =
      g.add_map("m1", stub_factory(), {"", "line"}, {"", "token"});
  const NodeId m2 = g.add_map("m2", stub_factory(), {"", "token"}, {"k", "v"});
  const NodeId sink = g.add_sink("sink", stub_factory(), {"k", "v"});
  for (NodeId n : {m1, m2, sink}) g.node(n).fusible = true;
  g.connect(src, m1, engine::local_edge());
  g.connect(m1, m2, engine::local_edge());
  g.connect(m2, sink, engine::local_edge());

  const Graph fused = fuse_maps(g);
  ir::verify(fused, "test");
  ASSERT_EQ(fused.nodes.size(), 1u);
  EXPECT_EQ(fused.edges.size(), 0u);
  EXPECT_EQ(fused.nodes[0].kind, NodeKind::kSource);
  EXPECT_EQ(fused.nodes[0].name, "src+m1+m2+sink");
  EXPECT_TRUE(fused.nodes[0].effect);  // the sink's side effect survives
}

TEST(IrPasses, FuseMapsStopsAtShuffleEdges) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId map = g.add_map("m", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  g.node(map).fusible = true;
  g.node(sink).fusible = true;
  g.connect(src, map, hash_attrs());  // shuffle: not fusible
  g.connect(map, sink, engine::local_edge());

  const Graph fused = fuse_maps(g);
  ir::verify(fused, "test");
  ASSERT_EQ(fused.nodes.size(), 2u);  // only map+sink collapsed
  EXPECT_EQ(fused.nodes[1].name, "m+sink");
}

TEST(IrPasses, FuseMapsHonoursFusibleFalse) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId map = g.add_map("m", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  g.node(map).fusible = false;
  g.node(sink).fusible = false;
  g.connect(src, map, engine::local_edge());
  g.connect(map, sink, engine::local_edge());

  const Graph fused = fuse_maps(g);
  EXPECT_EQ(fused.nodes.size(), 3u);
}

TEST(IrPasses, FuseMapsLeavesFanOutProducersAlone) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId a = g.add_sink("a", stub_factory());
  const NodeId b = g.add_sink("b", stub_factory());
  g.node(a).fusible = true;
  g.node(b).fusible = true;
  g.connect(src, a, engine::local_edge());
  g.connect(src, b, engine::local_edge());

  // Two consumers: fusing either would change the other's port numbering.
  const Graph fused = fuse_maps(g);
  EXPECT_EQ(fused.nodes.size(), 3u);
}

TEST(IrPasses, PlaceCombinerEnablesOnlyEligibleEdges) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId opted = g.add_combine("opted", stub_factory());
  const NodeId not_opted = g.add_combine("not-opted", stub_factory());
  const NodeId local = g.add_combine("local", stub_factory());
  const NodeId tapped = g.add_combine("tapped", stub_factory());
  g.node(opted).combinable = true;
  g.node(local).combinable = true;
  g.node(tapped).combinable = true;
  for (NodeId n : {opted, not_opted, local, tapped}) g.node(n).effect = true;

  g.connect(src, opted, hash_attrs());
  g.connect(src, not_opted, hash_attrs());
  g.connect(src, local, engine::local_edge());
  engine::EdgeOptions tap_attrs;
  tap_attrs.tap = [](uint32_t, std::string_view, std::string_view) {};
  g.connect(src, tapped, tap_attrs);

  const Graph placed = place_combiner(g);
  ir::verify(placed, "test");
  EXPECT_TRUE(placed.edges[0].options.combine);    // shuffle into opted-in
  EXPECT_FALSE(placed.edges[1].options.combine);   // not opted in
  EXPECT_FALSE(placed.edges[2].options.combine);   // local edge: nothing to win
  EXPECT_FALSE(placed.edges[3].options.combine);   // tap would be blinded
}

TEST(IrPasses, FuseMapCombineFoldsTheMapBelowTheShuffle) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId map = g.add_map("m", stub_factory());
  const NodeId comb = g.add_combine("fold", stub_factory());
  g.node(map).fusible = true;
  g.node(comb).combinable = true;
  g.node(comb).effect = true;
  g.connect(src, map, engine::local_edge());
  g.connect(map, comb, hash_attrs());

  const Graph placed = place_combiner(g);
  ASSERT_TRUE(placed.edges[1].options.combine);
  const Graph fused = fuse_map_combine(placed);
  ir::verify(fused, "test");
  ASSERT_EQ(fused.nodes.size(), 2u);
  EXPECT_EQ(fused.nodes[0].name, "src+m");
  EXPECT_TRUE(fused.edges[0].options.combine);  // combine edge survives fusion
}

TEST(IrPasses, EliminateDeadDropsBranchesWithoutEffects) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  const NodeId dead = g.add_map("dead", stub_factory());
  g.connect(src, sink, engine::local_edge());
  g.connect(src, dead, engine::local_edge());
  // `dead` hangs off src's trailing out-port, so removing it cannot
  // renumber the sink edge.
  const Graph cleaned = eliminate_dead(g);
  ir::verify(cleaned, "test");
  ASSERT_EQ(cleaned.nodes.size(), 2u);
  EXPECT_EQ(cleaned.nodes[1].name, "sink");
}

TEST(IrPasses, EliminateDeadKeepsNodesThatWouldRenumberPorts) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId dead = g.add_map("dead", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  g.connect(src, dead, engine::local_edge());  // port 0: dead
  g.connect(src, sink, engine::local_edge());  // port 1: live
  // Removing `dead` would shift the sink edge from port 1 to port 0 and
  // break the source flowlet's emit(1, ...) calls - so it must stay.
  const Graph cleaned = eliminate_dead(g);
  ir::verify(cleaned, "test");
  EXPECT_EQ(cleaned.nodes.size(), 3u);
}

TEST(IrPasses, StandardPipelineIsVerifiedBetweenPasses) {
  // A graph that is invalid from the start fails in optimize() with the
  // context-free message, before any pass mutates it.
  Graph g;
  g.add_map("orphan", stub_factory());
  EXPECT_THROW(ir::optimize(g), std::invalid_argument);
}

TEST(IrPasses, OptimizeKeepsTheShapeOfAnUnmarkedGraph) {
  // No node opts into fusion, so optimize() keeps every node and edge ...
  ir::Graph g = apps::wordcount::build_ir(/*combine=*/true);
  const ir::Graph out = ir::optimize(g);
  EXPECT_EQ(out.nodes.size(), g.nodes.size());
  EXPECT_EQ(out.edges.size(), g.edges.size());
  // ... but still places the combiner on the shuffle edge.
  bool combined = false;
  for (const auto& e : out.edges) combined |= e.options.combine;
  EXPECT_TRUE(combined);
}

TEST(IrPasses, OptimizeFusesAMapMarkedFusible) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId map = g.add_map("m", stub_factory());
  const NodeId sink = g.add_sink("sink", stub_factory());
  g.connect(src, map, engine::local_edge());
  g.connect(map, sink);
  EXPECT_EQ(ir::optimize(g).nodes.size(), 3u);  // nothing opted in

  g.node(map).fusible = true;
  const Graph fused = ir::optimize(g);
  ASSERT_EQ(fused.nodes.size(), 2u);
  EXPECT_EQ(fused.nodes[0].name, "src+m");  // collapsed into its producer
  EXPECT_EQ(fused.nodes[1].name, "sink");   // across a shuffle: stays
}

// --- dump -----------------------------------------------------------------

TEST(IrDump, RendersNodesEdgesAndAttributes) {
  Graph g;
  const NodeId src = g.add_source("TextLoader", stub_factory(), {"", "line"});
  const NodeId map =
      g.add_map("Splitter", stub_factory(), {"", "line"}, {"word", "count"});
  const NodeId comb =
      g.add_combine("Counter", stub_factory(), {"word", "count"}, {});
  g.node(comb).effect = true;
  g.node(comb).combinable = true;
  g.node(src).splits.resize(4);
  g.node(map).fusible = true;
  g.connect(src, map, engine::local_edge());
  engine::EdgeOptions attrs;
  attrs.combine = true;
  g.connect(map, comb, attrs);

  const std::string text = ir::dump(g);
  EXPECT_NE(text.find("n0: source \"TextLoader\" out=(,line) splits=4"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("n1: map \"Splitter\" in=(,line) out=(word,count) fusible"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("effect combinable"), std::string::npos) << text;
  EXPECT_NE(text.find("e0: n0 -> n1 [local]"), std::string::npos) << text;
  EXPECT_NE(text.find("e1: n1 -> n2 [combine]"), std::string::npos) << text;
}

// --- lowering -------------------------------------------------------------

// The id rule of lower.h: the flowlet id of a node is its IR node id.
engine::FlowletId source_flowlet(const ir::Graph& graph) {
  for (const ir::Node& node : graph.nodes) {
    if (node.kind == NodeKind::kSource) return node.id;
  }
  return 99;
}

TEST(IrLower, UnfusedWordCountPreservesHandBuiltFlowletIds) {
  // The chaos suite pins crash points to loader=0, splitter=1, count=2;
  // lowering a graph without fusion opt-ins must keep that contract forever.
  const ir::Graph optimized = ir::optimize(apps::wordcount::build_ir());
  const engine::FlowletGraph g = ir::lower(optimized).graph;
  EXPECT_EQ(source_flowlet(optimized), 0u);
  ASSERT_EQ(g.num_flowlets(), 3u);
  EXPECT_EQ(g.flowlet(0).kind, engine::FlowletKind::kLoader);
  EXPECT_EQ(g.flowlet(1).kind, engine::FlowletKind::kMap);
  EXPECT_EQ(g.flowlet(2).kind, engine::FlowletKind::kPartialReduce);
}

TEST(IrLower, CopiesSplitsAndEdgeOptionsIntoTheEngineGraph) {
  Graph g;
  const NodeId src = g.add_source("src", stub_factory());
  const NodeId comb = g.add_combine("fold", stub_factory());
  g.node(comb).effect = true;
  engine::InputSplit split;
  split.path = "input/x";
  split.length = 7;
  split.preferred_node = 1;
  g.node(src).splits.push_back(split);
  engine::EdgeOptions attrs;
  attrs.combine = true;
  g.connect(src, comb, attrs);

  const ir::Lowered lowered = ir::lower(g);
  ASSERT_EQ(lowered.graph.num_flowlets(), 2u);
  ASSERT_EQ(lowered.graph.flowlet(src).name, "src");  // flowlet id == node id
  EXPECT_TRUE(lowered.graph.edge(0).options.combine);
  const auto& splits = lowered.inputs.splits.at(src);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].path, "input/x");
  EXPECT_EQ(splits[0].preferred_node, 1u);
}

TEST(IrLower, FusedWordCountHasTwoFlowlets) {
  const ir::Graph optimized = ir::optimize(apps::wordcount::build_ir(
      /*combine=*/false, /*use_full_reduce=*/false, /*fused=*/true));
  const ir::Lowered lowered = ir::lower(optimized);
  EXPECT_EQ(lowered.graph.num_flowlets(), 2u);  // loader+splitter, counter
  EXPECT_EQ(lowered.graph.flowlet(source_flowlet(optimized)).kind,
            engine::FlowletKind::kLoader);
}

// --- end-to-end: fusion is an optimization, not a semantics change --------

std::vector<std::string> wc_shards(uint32_t nodes) {
  return apps::make_shards(nodes, [](uint32_t i) {
    std::string s;
    for (int line = 0; line < 40; ++line) {
      s += "alpha beta gamma delta w" + std::to_string(i) + " w" +
           std::to_string(line % 7) + "\n";
    }
    return s;
  });
}

struct LoggedRun {
  std::map<std::string, uint64_t> output;
  uint64_t bins_enqueued = 0;
  uint64_t bins_processed = 0;
};

LoggedRun run_wordcount_logged(bool fused) {
  obs::EventLog log;
  engine::EngineConfig config = engine::EngineConfig::fast();
  config.event_log = &log;
  apps::BenchEnv env =
      apps::BenchEnv::make(cluster::ClusterConfig::fast(4, 2), config);
  const apps::StagedInput input =
      apps::stage_input(env, "wordcount", wc_shards(4));
  apps::wordcount::run_hamr(env, input, /*combine=*/false,
                            /*use_full_reduce=*/false, fused);
  LoggedRun run;
  run.output = apps::wordcount::hamr_output(env);
  run.bins_enqueued = log.count(obs::EventKind::kBinEnqueued);
  run.bins_processed = log.count(obs::EventKind::kBinProcessed);
  return run;
}

TEST(IrEventLog, FusedWordCountIsByteIdenticalWithStrictlyFewerBinEvents) {
  const LoggedRun unfused = run_wordcount_logged(false);
  const LoggedRun fused = run_wordcount_logged(true);

  EXPECT_EQ(unfused.output, apps::wordcount::reference(wc_shards(4)));
  EXPECT_EQ(fused.output, unfused.output);

  // Fusing loader+splitter removes every bin on the local edge between
  // them: the fused job must dispatch strictly fewer bins, not just equal.
  EXPECT_LT(fused.bins_enqueued, unfused.bins_enqueued)
      << "fused=" << fused.bins_enqueued
      << " unfused=" << unfused.bins_enqueued;
  EXPECT_LT(fused.bins_processed, unfused.bins_processed);
}

TEST(IrEventLog, FusedCombinerWordCountStaysByteIdentical) {
  obs::EventLog log;
  engine::EngineConfig config = engine::EngineConfig::fast();
  config.event_log = &log;
  apps::BenchEnv env =
      apps::BenchEnv::make(cluster::ClusterConfig::fast(4, 2), config);
  const apps::StagedInput input =
      apps::stage_input(env, "wordcount", wc_shards(4));
  apps::wordcount::run_hamr(env, input, /*combine=*/true,
                            /*use_full_reduce=*/false, /*fused=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(env),
            apps::wordcount::reference(wc_shards(4)));
}

}  // namespace
}  // namespace hamr

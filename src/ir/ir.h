// Typed flowlet-graph IR (DESIGN.md §16).
//
// Every job in the repo - the apps, the query planner, the sort driver, the
// stream service and the examples - is built as an ir::Graph and compiled
// one way: ir::lower(ir::optimize(graph)). optimize() runs the four passes
// of passes.h (combiner placement, two opt-in fusions, dead-flowlet
// elimination); lower() emits the engine::FlowletGraph + JobInputs the
// runtime executes. Only src/engine/, src/ir/ and tests wire FlowletGraph
// directly.
//
// Five node kinds, mapping onto the engine's four flowlet kinds:
//
//   kSource  -> LoaderFlowlet         (carries its InputSplits)
//   kMap     -> MapFlowlet
//   kCombine -> PartialReduceFlowlet  (commutative+associative fold)
//   kReduce  -> ReduceFlowlet         (grouped, barriered)
//   kSink    -> MapFlowlet            (terminal side effects; effect=true)
//
// Nodes carry key/value *type tags* - free-form strings like ("word",
// "count") - checked across every edge by verify(); an empty component is a
// wildcard. Edges hold engine::EdgeOptions (combine / local / partitioner /
// tap) as they are, so engine::local_edge(), cache::aligned_edge() and
// cache::publish_tap() plug straight in. The IR is an open struct on
// purpose: passes are plain functions that read one Graph and build
// another, and verify() re-establishes every invariant between passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/flowlet.h"
#include "engine/graph.h"
#include "engine/split.h"

namespace hamr::ir {

using NodeId = uint32_t;
using EdgeId = uint32_t;

enum class NodeKind : uint8_t { kSource, kMap, kCombine, kReduce, kSink };

const char* node_kind_name(NodeKind kind);

// Key/value type tag pair. Components are free-form ("word", "f64-contrib",
// "row:<schema>"); an empty component matches anything, so generic operators
// (a pass-through sink, a byte-level tap) stay typeable.
struct TypeTag {
  std::string key;
  std::string value;
};

// True when the producer tag `out` can feed the consumer tag `in`.
bool tags_compatible(const TypeTag& out, const TypeTag& in);

struct Node {
  NodeId id = 0;
  NodeKind kind = NodeKind::kMap;
  std::string name;
  engine::FlowletFactory factory;
  TypeTag in;   // record type accepted (sources: ignored)
  TypeTag out;  // record type emitted on every out-port
  // Externally observable side effects (writes files, publishes datasets,
  // mutates the KV store). Effect nodes are the roots dead-flowlet
  // elimination keeps alive; kSink nodes are effectful by construction.
  bool effect = false;
  // kMap/kSink only: opt-in for fusion into the upstream producer (the
  // fuse_map_combine and fuse_maps passes). Off by default, so a graph with
  // no opt-in keeps its shape and its flowlet ids; front-ends set it where
  // removing the bin hop pays (DESIGN.md §16).
  bool fusible = false;
  // kCombine only: opt-in for sender-side combining (the place_combiner
  // pass). Off by default so apps keep the combiner as an explicit knob.
  bool combinable = false;
  std::vector<engine::InputSplit> splits;  // kSource only
  std::vector<EdgeId> out_edges;           // ordered by emit port
  std::vector<EdgeId> in_edges;
};

// `options.combine` is normally left false at construction and placed by
// the place_combiner pass; setting it by hand is allowed and verified the
// same way.
struct Edge {
  EdgeId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  engine::EdgeOptions options;
};

struct Graph {
  std::vector<Node> nodes;
  std::vector<Edge> edges;

  NodeId add_source(std::string name, engine::FlowletFactory factory,
                    TypeTag out = {});
  NodeId add_map(std::string name, engine::FlowletFactory factory,
                 TypeTag in = {}, TypeTag out = {});
  NodeId add_combine(std::string name, engine::FlowletFactory factory,
                     TypeTag in = {}, TypeTag out = {});
  NodeId add_reduce(std::string name, engine::FlowletFactory factory,
                    TypeTag in = {}, TypeTag out = {});
  // Sinks are maps with effect=true; `out` is typically unused (no out-edge).
  NodeId add_sink(std::string name, engine::FlowletFactory factory,
                  TypeTag in = {});

  // Connects src -> dst; the edge becomes src's next out-port (the fused /
  // lowered flowlet's emit(port, ...) indexes out-edges in connect order).
  EdgeId connect(NodeId src, NodeId dst, engine::EdgeOptions options = {});

  const Node& node(NodeId id) const { return nodes.at(id); }
  Node& node(NodeId id) { return nodes.at(id); }
  const Edge& edge(EdgeId id) const { return edges.at(id); }
  Edge& edge(EdgeId id) { return edges.at(id); }

  // Node ids in a topological order. Throws std::invalid_argument on a cycle.
  std::vector<NodeId> topo_order() const;

 private:
  NodeId add_node(NodeKind kind, std::string name,
                  engine::FlowletFactory factory, TypeTag in, TypeTag out);
};

// Structural + typing checks, run between every pass (DESIGN.md §16):
//   * node/edge ids are dense and cross-referenced consistently
//   * the graph is acyclic
//   * sources have no in-edges; every non-source node has at least one
//     (no dangling nodes); splits appear only on sources
//   * type tags match across every edge (empty component = wildcard)
//   * combine edges target kCombine nodes, and never carry a tap (combined
//     records fold before routing, so a tap would never see a per-record
//     destination)
// Throws std::invalid_argument with the offending node/edge named.
// `context` prefixes the message (e.g. "after pass fuse_maps").
void verify(const Graph& graph, const std::string& context = {});

// Deterministic textual form (--dump_ir, tests, golden files).
std::string dump(const Graph& graph);

}  // namespace hamr::ir

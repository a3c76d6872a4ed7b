// Backend: lowers a verified ir::Graph onto the engine's execution layer.
//
// Node kinds map onto engine flowlet kinds (source->loader, map/sink->map,
// combine->partial reduce, reduce->reduce); edges carry their
// engine::EdgeOptions over unchanged; per-source InputSplits populate the
// JobInputs.
//
// The id rule: flowlet id == IR node id. Out-ports follow each node's
// out-edge order, and edges are connected node by node (so edge ids follow
// node order, not connect order). A graph that optimize() leaves unfused
// therefore lowers to the flowlets, ports and edge options the same calls
// against engine::FlowletGraph would build.
#pragma once

#include "engine/graph.h"
#include "engine/split.h"
#include "ir/ir.h"

namespace hamr::ir {

struct Lowered {
  engine::FlowletGraph graph;
  engine::JobInputs inputs;
};

// Verifies, then lowers. Throws std::invalid_argument on a malformed graph.
Lowered lower(const Graph& graph);

}  // namespace hamr::ir

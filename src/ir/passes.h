// IR optimization passes (DESIGN.md §16). Each pass is a pure IR -> IR
// function. optimize() is the one pipeline every job is compiled through: it
// verifies the graph before the first pass and after every pass (the error
// names the pass), so an invariant-breaking pass fails loudly when the job
// is compiled, not inside the engine.
//
// Order:
//   1. place_combiner    - enable sender-side combining on every eligible
//                          shuffle edge into an opted-in (combinable)
//                          combine node: the combiner sinks below the
//                          shuffle, folding records on the sending node
//                          before bins are packed.
//   2. fuse_map_combine  - an opted-in (fusible) map whose single out-edge
//                          is a combine edge is fused into its local
//                          upstream producer, so produce -> transform ->
//                          combine-fold all run in one task body with zero
//                          intermediate bins.
//   3. fuse_maps         - collapse remaining producer -> fusible map chains
//                          across local, untapped, partitioner-free,
//                          non-combine edges (single-out producer, single-in
//                          consumer; kSink consumers fuse too).
//   4. eliminate_dead    - drop nodes with no path to an effect node,
//                          keeping any whose removal would renumber a
//                          surviving producer's emit ports.
//
// Both fusions and the combiner are opt-in per node (`fusible`,
// `combinable`), so a graph that opts into neither leaves optimize() with
// its shape, and therefore its flowlet ids, unchanged.
#pragma once

#include "ir/ir.h"

namespace hamr::ir {

Graph place_combiner(const Graph& graph);
Graph fuse_map_combine(const Graph& graph);
Graph fuse_maps(const Graph& graph);
Graph eliminate_dead(const Graph& graph);

// verify(g); then for each pass above, in order: g = pass(g);
// verify(g, "after pass <name>"). Throws std::invalid_argument.
Graph optimize(Graph graph);

}  // namespace hamr::ir

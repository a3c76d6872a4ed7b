#include "ir/lower.h"

namespace hamr::ir {

Lowered lower(const Graph& graph) {
  verify(graph);
  Lowered lowered;
  for (const Node& node : graph.nodes) {
    switch (node.kind) {
      case NodeKind::kSource:
        lowered.graph.add_loader(node.name, node.factory);
        break;
      case NodeKind::kMap:
      case NodeKind::kSink:
        lowered.graph.add_map(node.name, node.factory);
        break;
      case NodeKind::kCombine:
        lowered.graph.add_partial_reduce(node.name, node.factory);
        break;
      case NodeKind::kReduce:
        lowered.graph.add_reduce(node.name, node.factory);
        break;
    }
    for (const engine::InputSplit& split : node.splits) {
      lowered.inputs.add(node.id, split);
    }
  }
  // Per-node out-edge order defines the emit ports; engine connect() numbers
  // ports in call order, so connect each node's out-edges consecutively.
  for (const Node& node : graph.nodes) {
    for (EdgeId e : node.out_edges) {
      const Edge& edge = graph.edge(e);
      lowered.graph.connect(edge.src, edge.dst, edge.options);
    }
  }
  lowered.graph.validate();
  return lowered;
}

}  // namespace hamr::ir

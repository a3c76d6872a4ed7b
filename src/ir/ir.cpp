#include "ir/ir.h"

#include <deque>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace hamr::ir {

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource:
      return "source";
    case NodeKind::kMap:
      return "map";
    case NodeKind::kCombine:
      return "combine";
    case NodeKind::kReduce:
      return "reduce";
    case NodeKind::kSink:
      return "sink";
  }
  return "?";
}

bool tags_compatible(const TypeTag& out, const TypeTag& in) {
  const bool key_ok = out.key.empty() || in.key.empty() || out.key == in.key;
  const bool value_ok =
      out.value.empty() || in.value.empty() || out.value == in.value;
  return key_ok && value_ok;
}

NodeId Graph::add_node(NodeKind kind, std::string name,
                       engine::FlowletFactory factory, TypeTag in,
                       TypeTag out) {
  Node node;
  node.id = static_cast<NodeId>(nodes.size());
  node.kind = kind;
  node.name = std::move(name);
  node.factory = std::move(factory);
  node.in = std::move(in);
  node.out = std::move(out);
  nodes.push_back(std::move(node));
  return nodes.back().id;
}

NodeId Graph::add_source(std::string name, engine::FlowletFactory factory,
                         TypeTag out) {
  return add_node(NodeKind::kSource, std::move(name), std::move(factory), {},
                  std::move(out));
}

NodeId Graph::add_map(std::string name, engine::FlowletFactory factory,
                      TypeTag in, TypeTag out) {
  return add_node(NodeKind::kMap, std::move(name), std::move(factory),
                  std::move(in), std::move(out));
}

NodeId Graph::add_combine(std::string name, engine::FlowletFactory factory,
                          TypeTag in, TypeTag out) {
  return add_node(NodeKind::kCombine, std::move(name), std::move(factory),
                  std::move(in), std::move(out));
}

NodeId Graph::add_reduce(std::string name, engine::FlowletFactory factory,
                         TypeTag in, TypeTag out) {
  return add_node(NodeKind::kReduce, std::move(name), std::move(factory),
                  std::move(in), std::move(out));
}

NodeId Graph::add_sink(std::string name, engine::FlowletFactory factory,
                       TypeTag in) {
  const NodeId id = add_node(NodeKind::kSink, std::move(name),
                             std::move(factory), std::move(in), {});
  nodes[id].effect = true;
  return id;
}

EdgeId Graph::connect(NodeId src, NodeId dst, engine::EdgeOptions options) {
  if (src >= nodes.size() || dst >= nodes.size()) {
    throw std::invalid_argument("ir: connect with unknown node id");
  }
  Edge edge;
  edge.id = static_cast<EdgeId>(edges.size());
  edge.src = src;
  edge.dst = dst;
  edge.options = std::move(options);
  edges.push_back(std::move(edge));
  nodes[src].out_edges.push_back(edges.back().id);
  nodes[dst].in_edges.push_back(edges.back().id);
  return edges.back().id;
}

std::vector<NodeId> Graph::topo_order() const {
  std::vector<uint32_t> in_degree(nodes.size(), 0);
  for (const Edge& edge : edges) ++in_degree[edge.dst];
  std::deque<NodeId> ready;
  for (const Node& node : nodes) {
    if (in_degree[node.id] == 0) ready.push_back(node.id);
  }
  std::vector<NodeId> order;
  order.reserve(nodes.size());
  while (!ready.empty()) {
    const NodeId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (EdgeId e : nodes[id].out_edges) {
      if (--in_degree[edges[e].dst] == 0) ready.push_back(edges[e].dst);
    }
  }
  if (order.size() != nodes.size()) {
    throw std::invalid_argument("ir: graph has a cycle");
  }
  return order;
}

namespace {

std::string node_ref(const Node& node) {
  return "n" + std::to_string(node.id) + " '" + node.name + "'";
}

std::string edge_ref(const Graph& graph, const Edge& edge) {
  return "edge e" + std::to_string(edge.id) + " (" +
         node_ref(graph.node(edge.src)) + " -> " +
         node_ref(graph.node(edge.dst)) + ")";
}

[[noreturn]] void fail(const std::string& context, const std::string& what) {
  throw std::invalid_argument(context.empty() ? "ir: " + what
                                              : "ir: " + context + ": " + what);
}

}  // namespace

void verify(const Graph& graph, const std::string& context) {
  // Dense, self-consistent ids and edge cross-references.
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    if (graph.nodes[i].id != i) {
      fail(context, "node at index " + std::to_string(i) + " has id " +
                        std::to_string(graph.nodes[i].id));
    }
  }
  std::vector<uint32_t> seen_out(graph.edges.size(), 0);
  std::vector<uint32_t> seen_in(graph.edges.size(), 0);
  for (const Node& node : graph.nodes) {
    for (EdgeId e : node.out_edges) {
      if (e >= graph.edges.size() || graph.edges[e].src != node.id) {
        fail(context, node_ref(node) + " lists a bad out-edge");
      }
      ++seen_out[e];
    }
    for (EdgeId e : node.in_edges) {
      if (e >= graph.edges.size() || graph.edges[e].dst != node.id) {
        fail(context, node_ref(node) + " lists a bad in-edge");
      }
      ++seen_in[e];
    }
  }
  for (size_t i = 0; i < graph.edges.size(); ++i) {
    const Edge& edge = graph.edges[i];
    if (edge.id != i) {
      fail(context, "edge at index " + std::to_string(i) + " has id " +
                        std::to_string(edge.id));
    }
    if (edge.src >= graph.nodes.size() || edge.dst >= graph.nodes.size()) {
      fail(context, "edge e" + std::to_string(edge.id) + " references an unknown node");
    }
    if (edge.src == edge.dst) {
      fail(context, edge_ref(graph, edge) + " is a self-loop");
    }
    if (seen_out[i] != 1 || seen_in[i] != 1) {
      fail(context, "edge e" + std::to_string(i) +
                        " is not cross-referenced exactly once");
    }
  }

  graph.topo_order();  // throws on a cycle

  for (const Node& node : graph.nodes) {
    const bool is_source = node.kind == NodeKind::kSource;
    if (is_source && !node.in_edges.empty()) {
      fail(context, "source " + node_ref(node) + " has in-edges");
    }
    if (!is_source && node.in_edges.empty()) {
      fail(context, "dangling node " + node_ref(node) +
                        ": a non-source node with no inputs never runs");
    }
    if (!is_source && !node.splits.empty()) {
      fail(context, node_ref(node) + " carries input splits but is not a source");
    }
    if (!node.factory) {
      fail(context, node_ref(node) + " has no flowlet factory");
    }
  }

  for (const Edge& edge : graph.edges) {
    const Node& src = graph.node(edge.src);
    const Node& dst = graph.node(edge.dst);
    if (edge.options.combine) {
      if (dst.kind != NodeKind::kCombine) {
        fail(context, "combine " + edge_ref(graph, edge) +
                          " targets a non-combine node: sender-side combining "
                          "needs the destination's fold()");
      }
      if (edge.options.tap) {
        fail(context,
             "tap on combine " + edge_ref(graph, edge) +
                 ": combined records fold before routing, so a tap would "
                 "never observe per-record destinations; remove the tap or "
                 "disable combining on this edge");
      }
    }
    if (!tags_compatible(src.out, dst.in)) {
      fail(context, "type mismatch on " + edge_ref(graph, edge) + ": producer "
                        "emits (" + src.out.key + "," + src.out.value +
                        ") but consumer accepts (" + dst.in.key + "," +
                        dst.in.value + ")");
    }
  }
}

std::string dump(const Graph& graph) {
  std::ostringstream out;
  out << "ir::Graph {\n";
  for (const Node& node : graph.nodes) {
    out << "  n" << node.id << ": " << node_kind_name(node.kind) << " \""
        << node.name << "\"";
    if (node.kind != NodeKind::kSource &&
        (!node.in.key.empty() || !node.in.value.empty())) {
      out << " in=(" << node.in.key << "," << node.in.value << ")";
    }
    if (!node.out.key.empty() || !node.out.value.empty()) {
      out << " out=(" << node.out.key << "," << node.out.value << ")";
    }
    if (node.effect) out << " effect";
    if (node.combinable) out << " combinable";
    if (node.fusible) out << " fusible";
    if (!node.splits.empty()) out << " splits=" << node.splits.size();
    out << "\n";
  }
  for (const Edge& edge : graph.edges) {
    out << "  e" << edge.id << ": n" << edge.src << " -> n" << edge.dst;
    std::string flags;
    const auto flag = [&flags](const char* name) {
      flags += flags.empty() ? "" : ",";
      flags += name;
    };
    if (edge.options.local) flag("local");
    if (edge.options.combine) flag("combine");
    if (edge.options.partitioner) flag("partitioner");
    if (edge.options.tap) flag("tap");
    if (!flags.empty()) out << " [" << flags << "]";
    out << "\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace hamr::ir

#include "query/planner.h"

#include <stdexcept>
#include <utility>

#include "cache/scan_loader.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "query/exec.h"
#include "serde/batch.h"

namespace hamr::query {

namespace {

// Cache dataset name for a staged table. Deliberately tag-free: the tag is
// per-query, and the whole point is sharing one staging across queries.
std::string staged_dataset_name(const std::string& table) {
  return "query/staged/" + table;
}

// Publishes a table's shards to the dataset cache: record value = one
// encode_row_block frame, sharded exactly like the file path (row i on node
// i mod nodes). Returns the pinned dataset, or null if the commit lost an
// invalidation race (caller falls back to file staging).
std::shared_ptr<const cache::Dataset> publish_staged_table(
    cache::DatasetCache& cache, const Table& table, const std::string& name,
    uint32_t nodes) {
  cache::PublishOptions options;
  options.stamp = table.rows.size();
  auto writer = cache.begin(staged_dataset_name(name), options);
  for (uint32_t n = 0; n < nodes; ++n) {
    const std::string shard = encode_table_shard(table, n, nodes);
    std::string_view view = shard;
    size_t pos = 0;
    std::vector<std::string_view> blocks;
    while (serde::get_framed_run(view, &pos, 1, &blocks) != 0) {
      writer->append(n, "", blocks[0]);
      blocks.clear();
    }
  }
  if (!writer->commit()) return nullptr;
  return cache.pin(staged_dataset_name(name), options.stamp);
}

}  // namespace

StagedTables stage_tables(cluster::Cluster& cluster, const Catalog& catalog,
                          const std::vector<std::string>& tables,
                          const std::string& tag, cache::DatasetCache* cache) {
  StagedTables staged;
  staged.prefix = "input/query/" + tag + "/";
  staged.nodes = cluster.size();
  for (const std::string& name : tables) {
    const Table& table = catalog.at(name);
    if (cache != nullptr) {
      // The stamp pins the dataset to this table's current cardinality: a
      // re-loaded catalog with different rows misses and re-publishes.
      std::shared_ptr<const cache::Dataset> dataset =
          cache->pin(staged_dataset_name(name), table.rows.size());
      if (!dataset) {
        dataset = publish_staged_table(*cache, table, name, staged.nodes);
      }
      if (dataset) {
        std::vector<uint64_t>& bytes = staged.shard_bytes[name];
        bytes.resize(staged.nodes);
        for (uint32_t n = 0; n < staged.nodes; ++n) {
          bytes[n] = dataset->shard(n).bytes;
        }
        staged.cached[name] = std::move(dataset);
        continue;
      }
      // Commit lost an invalidation race: stage on disk like the cold path.
    }
    std::vector<uint64_t>& bytes = staged.shard_bytes[name];
    bytes.resize(staged.nodes);
    for (uint32_t n = 0; n < staged.nodes; ++n) {
      const std::string shard = encode_table_shard(table, n, staged.nodes);
      bytes[n] = shard.size();
      cluster.node(n).store().write_file(staged.path_of(name), shard);
    }
  }
  return staged;
}

namespace {

// Recursive lowering context: the IR graph under construction plus the
// staged-table map for split generation.
struct LowerCtx {
  const Catalog& catalog;
  const StagedTables& staged;
  ir::Graph graph;
};

// Type tag of a producer's hand-off, from how its consumer wants rows: the
// IR verifier then proves every stage receives the encoding it decodes.
ir::TypeTag tag_of(const EmitSpec& emit) {
  switch (emit.mode) {
    case EmitSpec::Mode::kLocalRow:
      return {"", "row"};
    case EmitSpec::Mode::kJoinSide:
      return {"join-key", "side-row"};
    case EmitSpec::Mode::kGroupState:
      return {"group-key", "agg-state"};
  }
  return {};
}

ir::NodeId lower_node(const Plan& plan, EmitSpec emit, LowerCtx& ctx);

Schema schema_of(const Plan& plan, const Catalog& catalog) {
  return output_schema(plan, catalog);
}

ir::NodeId lower_scan_chain(const Plan& base, RowPipeline pipeline,
                            EmitSpec emit, LowerCtx& ctx) {
  auto compiled = std::make_shared<ScanCompiled>();
  compiled->table_schema = ctx.catalog.at(base.table).schema;
  compiled->pipeline = std::move(pipeline);
  const ir::TypeTag out = tag_of(emit);
  compiled->emit = std::move(emit);

  // Cache-resident staging: scan the pinned dataset in place. Placement is
  // inherited (split n runs on node n, where shard n's blocks live), so the
  // table moves zero bytes between queries of a session.
  auto cached = ctx.staged.cached.find(base.table);
  if (cached != ctx.staged.cached.end()) {
    const ir::NodeId loader = ctx.graph.add_source(
        "QueryCachedScan(" + base.table + ")",
        make_cached_scan_loader(compiled, cached->second), out);
    ctx.graph.node(loader).splits = cache::scan_splits(*cached->second);
    return loader;
  }

  const ir::NodeId loader = ctx.graph.add_source(
      "QueryScan(" + base.table + ")", make_scan_loader(compiled), out);
  const auto& bytes = ctx.staged.shard_bytes.at(base.table);
  for (uint32_t n = 0; n < ctx.staged.nodes; ++n) {
    engine::InputSplit split;
    split.path = ctx.staged.path_of(base.table);
    split.offset = 0;
    split.length = bytes[n];
    split.preferred_node = n;
    ctx.graph.node(loader).splits.push_back(std::move(split));
  }
  return loader;
}

ir::NodeId lower_join(const Plan& plan, EmitSpec emit, LowerCtx& ctx) {
  auto compiled = std::make_shared<JoinCompiled>();
  compiled->left_schema = schema_of(*plan.child, ctx.catalog);
  compiled->right_schema = schema_of(*plan.right, ctx.catalog);
  const ir::TypeTag out = tag_of(emit);
  compiled->emit = std::move(emit);

  const ir::NodeId join =
      ctx.graph.add_reduce("QueryHashJoin", make_join(compiled),
                           {"join-key", "side-row"}, out);

  EmitSpec left_emit;
  left_emit.mode = EmitSpec::Mode::kJoinSide;
  left_emit.schema = compiled->left_schema;
  left_emit.key_cols = plan.left_keys;
  left_emit.side = 0;
  const ir::NodeId left = lower_node(*plan.child, left_emit, ctx);
  ctx.graph.connect(left, join);

  EmitSpec right_emit;
  right_emit.mode = EmitSpec::Mode::kJoinSide;
  right_emit.schema = compiled->right_schema;
  right_emit.key_cols = plan.right_keys;
  right_emit.side = 1;
  const ir::NodeId right = lower_node(*plan.right, right_emit, ctx);
  ctx.graph.connect(right, join);
  return join;
}

ir::NodeId lower_group_by(const Plan& plan, EmitSpec emit, LowerCtx& ctx) {
  auto g = std::make_shared<GroupCompiled>();
  g->key_cols = plan.keys;
  g->aggs = plan.aggs;
  g->in_schema = schema_of(*plan.child, ctx.catalog);
  g->out_schema = schema_of(plan, ctx.catalog);
  for (uint32_t k : plan.keys) g->key_types.push_back(g->in_schema.cols[k].type);

  const ir::TypeTag out = tag_of(emit);
  const ir::NodeId group =
      ctx.graph.add_combine("QueryGroupBy", make_group_by(g, std::move(emit)),
                            {"group-key", "agg-state"}, out);
  // Sender-side combining (placed by the place_combiner pass): single-row
  // states merge into per-key partials before bins are packed, so hot keys
  // cross the wire pre-aggregated.
  ctx.graph.node(group).combinable = true;

  EmitSpec child_emit;
  child_emit.mode = EmitSpec::Mode::kGroupState;
  child_emit.schema = g->in_schema;
  child_emit.group = g;
  const ir::NodeId child = lower_node(*plan.child, child_emit, ctx);
  ctx.graph.connect(child, group);
  return group;
}

ir::NodeId lower_node(const Plan& plan, EmitSpec emit, LowerCtx& ctx) {
  // Peel the filter/project chain above the next shuffle (or scan): the
  // steps fuse into whatever flowlet produces the chain's input rows.
  RowPipeline pipeline;
  const Plan* node = &plan;
  while (node->kind == Plan::Kind::kFilter ||
         node->kind == Plan::Kind::kProject) {
    RowPipeline::Step step;
    if (node->kind == Plan::Kind::kFilter) {
      step.is_filter = true;
      step.pred = node->pred;
    } else {
      step.cols = node->cols;
    }
    pipeline.steps.insert(pipeline.steps.begin(), std::move(step));
    node = node->child.get();
  }

  switch (node->kind) {
    case Plan::Kind::kScan:
      return lower_scan_chain(*node, std::move(pipeline), std::move(emit), ctx);

    case Plan::Kind::kJoin:
    case Plan::Kind::kGroupBy: {
      const bool is_join = node->kind == Plan::Kind::kJoin;
      if (pipeline.steps.empty()) {
        return is_join ? lower_join(*node, std::move(emit), ctx)
                       : lower_group_by(*node, std::move(emit), ctx);
      }
      // Map fed over a local edge: the base's output rows are already
      // partitioned however its own shuffle left them, and filter/project
      // are row-local, so no network hop is needed. The fuse_maps pass then
      // folds it into the producing stage's task body.
      auto compiled = std::make_shared<MapCompiled>();
      compiled->in_schema = schema_of(*node, ctx.catalog);
      compiled->pipeline = std::move(pipeline);
      const ir::TypeTag out = tag_of(emit);
      compiled->emit = std::move(emit);
      const ir::NodeId map = ctx.graph.add_map(
          "QueryFusedMap", make_fused_map(compiled), {"", "row"}, out);
      ctx.graph.node(map).fusible = true;

      EmitSpec base_emit;
      base_emit.mode = EmitSpec::Mode::kLocalRow;
      base_emit.schema = compiled->in_schema;
      const ir::NodeId base = is_join ? lower_join(*node, base_emit, ctx)
                                      : lower_group_by(*node, base_emit, ctx);
      ctx.graph.connect(base, map, engine::local_edge());
      return map;
    }

    case Plan::Kind::kFilter:
    case Plan::Kind::kProject:
      break;  // unreachable: peeled above
  }
  throw std::invalid_argument("unreachable plan kind in lowering");
}

}  // namespace

ir::Graph lower_ir(const Plan& plan, const Catalog& catalog,
                   const StagedTables& staged, const std::string& tag,
                   std::string* out_prefix_out) {
  // Validates the tree; the rewritten plan's output schema is the original's.
  const PlanPtr rewritten = push_down(plan, catalog);
  const std::string out_prefix = "out/query/" + tag + "/";
  if (out_prefix_out != nullptr) *out_prefix_out = out_prefix;

  LowerCtx ctx{catalog, staged, {}};
  const ir::NodeId sink =
      ctx.graph.add_sink("QuerySink", make_sink(out_prefix), {"", "row"});
  ctx.graph.node(sink).fusible = true;  // runs in the top stage's task body

  EmitSpec top_emit;
  top_emit.mode = EmitSpec::Mode::kLocalRow;
  top_emit.schema = output_schema(*rewritten, catalog);
  const ir::NodeId top = lower_node(*rewritten, top_emit, ctx);
  ctx.graph.connect(top, sink, engine::local_edge());
  return ctx.graph;
}

Lowered lower(const Plan& plan, const Catalog& catalog,
              const StagedTables& staged, const std::string& tag) {
  Lowered lowered;
  lowered.out_schema = output_schema(plan, catalog);  // validates the tree

  ir::Graph graph =
      ir::optimize(lower_ir(plan, catalog, staged, tag, &lowered.out_prefix));
  ir::Lowered backend = ir::lower(graph);
  lowered.graph = std::move(backend.graph);
  lowered.inputs = std::move(backend.inputs);
  return lowered;
}

std::string collect_output_payload(cluster::Cluster& cluster,
                                   const std::string& out_prefix) {
  std::string payload;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    auto result = cluster.node(n).store().read_file(
        out_prefix + "node" + std::to_string(n));
    if (result.ok()) payload += *result.value();
  }
  return payload;
}

std::vector<Row> decode_payload(const Schema& schema,
                                std::string_view payload) {
  std::vector<Row> rows;
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    if (eol > pos) {
      rows.push_back(
          schema.decode_row(from_hex(payload.substr(pos, eol - pos))));
    }
    pos = eol + 1;
  }
  return rows;
}

std::vector<Row> run_on_engine(engine::Engine& engine, const Plan& plan,
                               const Catalog& catalog, const std::string& tag,
                               cache::DatasetCache* cache) {
  // `staged` holds the pins through the run, keeping cached tables resident.
  const StagedTables staged =
      stage_tables(engine.cluster(), catalog, scan_tables(plan), tag, cache);
  Lowered lowered = lower(plan, catalog, staged, tag);
  engine.run(lowered.graph, lowered.inputs);
  return decode_payload(
      lowered.out_schema,
      collect_output_payload(engine.cluster(), lowered.out_prefix));
}

SubmittedQuery submit_query(service::JobService& service,
                            cluster::Cluster& cluster, const Plan& plan,
                            const Catalog& catalog,
                            const service::JobSpec& spec,
                            const std::string& tag,
                            cache::DatasetCache* cache) {
  const StagedTables staged =
      stage_tables(cluster, catalog, scan_tables(plan), tag, cache);
  Lowered lowered = lower(plan, catalog, staged, tag);

  service::JobWork work;
  work.graph = std::move(lowered.graph);
  work.inputs = std::move(lowered.inputs);
  // The service holds the pins until the job is terminal: eviction cannot
  // reclaim a staged table out from under a queued or running query.
  for (const auto& [table, dataset] : staged.cached) {
    work.pins.push_back(dataset);
  }
  const std::string out_prefix = lowered.out_prefix;
  work.collect = [out_prefix](engine::Engine& engine) {
    return collect_output_payload(engine.cluster(), out_prefix);
  };

  SubmittedQuery submitted;
  submitted.out_schema = std::move(lowered.out_schema);
  submitted.ticket = service.submit(spec, std::move(work));
  return submitted;
}

}  // namespace hamr::query

// Planner: lowers a logical plan to a flowlet DAG and runs it - directly on
// an Engine (tests, chaos suite) or submitted through the multi-tenant
// JobService (benches, serving traffic). See DESIGN.md §13 for the lowering
// rules; exec.h holds the physical operators.
//
// Life of a query:
//   1. stage_tables()  - deal each scanned table's rows round-robin across
//                        the nodes and write one framed-row shard file per
//                        node into its local store (the DFS-resident-input
//                        analog: scans read node-local disks, paper §5.1);
//   2. lower()         - rewrite the plan with push_down (filters and
//                        column pruning below joins), recursively compile
//                        it into an ir::Graph and lower it through ir::optimize +
//                        ir::lower. Filter/project chains fold into the
//                        flowlet below them (the scan loader when the base
//                        is a scan, a fusible local-edge map otherwise);
//                        joins and group-bys become shuffle stages; a
//                        fusible sink collects final rows per node;
//   3. run             - Engine::run or JobService::submit; the job's
//                        collect() merges every node's sink file into the
//                        ticket payload;
//   4. decode_payload  - hex lines back into typed rows.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/dataset_cache.h"
#include "cluster/cluster.h"
#include "engine/engine.h"
#include "ir/ir.h"
#include "query/plan.h"
#include "service/job_service.h"

namespace hamr::query {

// Where a query's input tables were staged: one shard file per node at
// "input/query/<tag>/<table>", shard i holding rows i mod nodes - or, for
// tables found in (or published to) the dataset cache, a pinned resident
// dataset "query/staged/<table>" whose records are the same framed row
// blocks, with no files written at all.
struct StagedTables {
  std::string prefix;  // "input/query/<tag>/"
  uint32_t nodes = 0;
  // Per-table shard sizes in bytes, indexed by node.
  std::map<std::string, std::vector<uint64_t>> shard_bytes;
  // Pinned cache datasets (held for the staging's lifetime) for tables that
  // skipped file staging. Lowering scans these via CachedRowScanLoader.
  std::map<std::string, std::shared_ptr<const cache::Dataset>> cached;

  std::string path_of(const std::string& table) const { return prefix + table; }
};

// Stages each table's rows for scanning. With a dataset cache, a table whose
// dataset "query/staged/<table>" is already resident (stamp = row count) is
// pinned and reused verbatim - multi-query sessions over one table stage it
// once instead of re-writing shard files per query. On a miss the shards are
// published to the cache (then pinned) instead of written to disk; only when
// the cache is absent (or a commit loses an invalidation race) does the
// original per-query file staging run.
StagedTables stage_tables(cluster::Cluster& cluster, const Catalog& catalog,
                          const std::vector<std::string>& tables,
                          const std::string& tag,
                          cache::DatasetCache* cache = nullptr);

struct Lowered {
  engine::FlowletGraph graph;
  engine::JobInputs inputs;
  Schema out_schema;
  std::string out_prefix;  // "out/query/<tag>/"
};

// Compiles push_down(plan) into flowlet IR (throws std::invalid_argument like
// output_schema). The graph is un-optimized: callers inspect/dump it, then
// run it through ir::optimize + ir::lower - which is exactly what lower()
// does. `out_prefix_out` receives the sink's output prefix when non-null.
ir::Graph lower_ir(const Plan& plan, const Catalog& catalog,
                   const StagedTables& staged, const std::string& tag,
                   std::string* out_prefix_out = nullptr);

// Validates the plan (throws std::invalid_argument like output_schema) and
// compiles it against tables previously staged under the same catalog:
// lower_ir + ir::optimize (sender-side combiner placement on group-bys,
// sink/map fusion into the producing stage, dead-flowlet elimination) +
// ir::lower.
Lowered lower(const Plan& plan, const Catalog& catalog,
              const StagedTables& staged, const std::string& tag);

// Concatenated sink files (hex rows, one per line) of every node.
std::string collect_output_payload(cluster::Cluster& cluster,
                                   const std::string& out_prefix);

std::vector<Row> decode_payload(const Schema& schema, std::string_view payload);

// One-shot engine path: stage + lower + Engine::run + collect. `tag` keys
// the staged inputs and output files, so back-to-back queries on one
// cluster must use distinct tags. With `cache`, staged tables are served
// from (and published to) the dataset cache instead of per-query files.
std::vector<Row> run_on_engine(engine::Engine& engine, const Plan& plan,
                               const Catalog& catalog, const std::string& tag,
                               cache::DatasetCache* cache = nullptr);

// Service path: stage + lower + JobService::submit. The returned ticket's
// payload() (valid once kDone) decodes with decode_payload(out_schema, ...).
struct SubmittedQuery {
  std::shared_ptr<service::JobTicket> ticket;
  Schema out_schema;
};

// With `cache`, staged tables are cache-resident and their pins ride in the
// JobWork so the datasets stay resident until the job is terminal.
SubmittedQuery submit_query(service::JobService& service,
                            cluster::Cluster& cluster, const Plan& plan,
                            const Catalog& catalog,
                            const service::JobSpec& spec,
                            const std::string& tag,
                            cache::DatasetCache* cache = nullptr);

}  // namespace hamr::query

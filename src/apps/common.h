// Shared plumbing for the eight benchmark applications: environment bring-up,
// input staging (node-local files for HAMR + one DFS file for the baseline,
// byte-identical datasets), and output collection helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/dataset_cache.h"
#include "cluster/cluster.h"
#include "dfs/mini_dfs.h"
#include "engine/engine.h"
#include "ir/ir.h"
#include "mapreduce/job_runner.h"

namespace hamr::apps {

// Everything a benchmark run needs, brought up in dependency order.
struct BenchEnv {
  cluster::ClusterConfig cluster_config;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<mapreduce::JobRunner> mr;
  // Cross-job dataset cache for the iterative drivers (PageRank/KMeans
  // cached chains). Budget: a quarter of the engine's memory budget - the
  // lane-memory carve of DESIGN.md §15.
  std::shared_ptr<cache::DatasetCache> dataset_cache;
  // Baseline job knobs every app starts from (startup costs, sort buffer,
  // merge fan-in); the bench harness scales these with the cluster model.
  mapreduce::MrJobConfig mr_defaults;

  static BenchEnv make(cluster::ClusterConfig cluster_cfg,
                       engine::EngineConfig engine_cfg = {},
                       dfs::DfsConfig dfs_cfg = {});

  // Correctness-test environment: all cost models off.
  static BenchEnv fast(uint32_t nodes, uint32_t threads = 2);

  uint32_t nodes() const { return cluster->size(); }
};

// Builds n shard strings by calling fn(i) for each i in [0, n) — the
// "one generated shard per node" pattern shared by benches and tests.
std::vector<std::string> make_shards(
    uint32_t n, const std::function<std::string(uint32_t)>& fn);

struct StagedInput {
  // Engine side: line-aligned splits of the per-node local files.
  std::vector<engine::InputSplit> splits;
  std::string local_path;  // same path in every node's store
  // Baseline side: one DFS file (concatenated shards).
  std::string dfs_path;
  uint64_t total_bytes = 0;
};

// Writes shard i to node i's local store as "input/<name>" and the whole
// dataset to the DFS as "/input/<name>". Splits are cut at line boundaries
// near `split_target_bytes`.
StagedInput stage_input(BenchEnv& env, const std::string& name,
                        const std::vector<std::string>& shards,
                        uint64_t split_target_bytes = 1 << 20);

// Adds a TextLoader source named `name` that reads the staged splits.
ir::NodeId add_text_source(ir::Graph& graph, std::string name,
                           const StagedInput& staged,
                           ir::TypeTag out = {"", "line"});

// Compiles the job the one way every job is compiled -
// ir::lower(ir::optimize(graph)) - and runs it on the env's engine.
engine::JobResult run_ir(BenchEnv& env, ir::Graph graph);

// Merges "key\tvalue" lines of every node-local file with the given prefix.
// Duplicate keys keep the last value seen (apps with unique keys per node).
std::map<std::string, std::string> collect_local_kv(cluster::Cluster& cluster,
                                                    const std::string& prefix);

// Removes every node-local file whose path starts with `prefix`. Jobs whose
// outputs are appended to call it when they start, so a rerun does not count
// an earlier run's output again.
void remove_local_files(cluster::Cluster& cluster, const std::string& prefix);

// Merges "key\tvalue" lines of every DFS part file under `dir`.
std::map<std::string, std::string> collect_dfs_kv(BenchEnv& env,
                                                  const std::string& dir);

// Parses a kv map whose values are decimal counters.
std::map<std::string, uint64_t> to_counts(const std::map<std::string, std::string>& kv);

// Splits a whitespace-separated token list.
std::vector<std::string_view> tokenize(std::string_view line);

}  // namespace hamr::apps

// K-Means, single iteration (paper §4, Alg. 1) - the flagship
// locality-awareness benchmark (§3.3).
//
// HAMR DAG: TextLoader -> ClusterGen (map) -> NewCentroidGen (reduce) ->
// NewCentroidInfoGet (map) -> CentroidUpdate (map).
// ClusterGen writes each movie to a LOCAL per-cluster file and ships only a
// tiny (similarity, node, offset) record downstream; the chosen new centroid
// is fetched back from the node holding the line (emit_to_node) and then
// broadcast - the full vectors never cross the network.
//
// Baseline: one Hadoop job that shuffles the ENTIRE movie line through
// sort/spill/merge to pick the new centroid per cluster.
//
// New-centroid rule (both systems + reference): the movie with the highest
// similarity to its old centroid; ties broken by smaller movie line text.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/common.h"

namespace hamr::apps::kmeans {

struct RunInfo {
  double seconds = 0;
  engine::JobResult engine_result;
  mapreduce::MrResult baseline_result;
};

struct Params {
  uint32_t k = 8;
  std::vector<std::string> centroid_lines;  // initial centroids (movie lines)
};

// Derives deterministic initial centroids from shard 0.
Params make_params(const std::vector<std::string>& shards, uint32_t k = 8);

// `ship_full_vectors` disables the locality optimization (ablation A4): the
// whole movie line travels to NewCentroidGen instead of a (sim, node,
// offset) index record, exactly as the baseline does.
RunInfo run_hamr(BenchEnv& env, const StagedInput& input, const Params& params,
                 bool ship_full_vectors = false);
RunInfo run_baseline(BenchEnv& env, const StagedInput& input, const Params& params);

// cluster id -> new centroid movie line.
std::map<uint32_t, std::string> hamr_new_centroids(BenchEnv& env);
std::map<uint32_t, std::string> baseline_new_centroids(BenchEnv& env);
// cluster id -> member count (from the locally-written cluster files).
std::map<uint32_t, uint64_t> hamr_cluster_sizes(BenchEnv& env);

struct ReferenceResult {
  std::map<uint32_t, std::string> new_centroids;
  std::map<uint32_t, uint64_t> cluster_sizes;
};
ReferenceResult reference(const std::vector<std::string>& shards,
                          const Params& params);

}  // namespace hamr::apps::kmeans

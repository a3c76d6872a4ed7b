// Distributed sort (TeraSort-class) on the flowlet engine.
//
// Pipeline (one job):
//
//   SortRunLoader (per node)  --range-partitioned edge-->  SortSink (per node)
//
// The loader streams a node-local framed-record file in chunks; the edge
// routes each record by a RangePartitioner built from a seeded sampling pass
// over the inputs (one sampler thread per node); the sink stages arrivals in
// storage::StagedRuns (an arena with 8-byte key-prefix index entries, sorted
// by storage::sort_recs: prefix radix sort, key compare only on undecided
// prefix ties), spills sorted runs past the memory budget (trace span
// sort.spill), and on upstream completion merges spills + memory through
// the loser tree into one sorted run file per node (trace span sort.merge).
// Because partition i's keys all precede partition i+1's, concatenating the
// per-node outputs in node order is the globally sorted dataset.
//
// Records are opaque byte strings sorted lexicographically (carried as keys
// with empty values), so equal records are byte-identical and the output is
// byte-for-byte deterministic under any merge order, worker interleaving, or
// chaos-plan retries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "engine/engine.h"
#include "sort/partitioner.h"

namespace hamr::sort {

struct SortSpec {
  // Node-local framed input file ((varint len | bytes)* records).
  std::string input_path = "sort/input";
  // Sorted partition written to "<output_prefix>/p<node>" per node; spill
  // runs live under "<output_prefix>/spill/".
  std::string output_prefix = "sort/out";
  // Per-node staging bytes before a sorted run is spilled.
  uint64_t memory_budget_bytes = 8ull << 20;
  // Records decoded per loader chunk (fine-grain task size).
  size_t records_per_chunk = 2048;
  // Sampling pass: total reservoir capacity, split evenly over the nodes,
  // and the seed each node's reservoir seed derives from (deterministic
  // boundaries).
  size_t sample_capacity = 4096;
  uint64_t sample_seed = 0x5eed;
};

struct SortStats {
  engine::JobResult job;
  uint64_t input_records = 0;
  RangePartitioner partitioner;
};

// Encodes records into the framed on-disk layout the loader streams.
std::string frame_records(const std::vector<std::string>& records);

// Writes shard i to node i's local store at spec.input_path.
void stage_sort_input(cluster::Cluster& cluster, const SortSpec& spec,
                      const std::vector<std::string>& shards);

// Seeded sampling pass over every node's staged input, one thread per node.
// Node n fills its own KeySampler with ceil(sample_capacity / nodes) slots
// and seed hash_combine(sample_seed, n); a node without an input file adds
// nothing. The samples are joined in node order, so the boundaries (balanced
// for `parts` partitions, normally cluster size) never depend on thread
// timing.
RangePartitioner sample_partitioner(cluster::Cluster& cluster,
                                    const SortSpec& spec, uint32_t parts);

// Runs the full sort: sampling pass, range-partitioned shuffle, per-node
// spill/merge. Output partitions land in each node's local store.
SortStats run_distributed_sort(engine::Engine& engine, const SortSpec& spec);

// Reads the per-node sorted partitions back in node order (the globally
// sorted record sequence).
std::vector<std::string> collect_sorted(cluster::Cluster& cluster,
                                        const SortSpec& spec);

}  // namespace hamr::sort

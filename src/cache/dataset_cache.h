// DatasetCache: M3R-style cross-job, node-resident dataset cache with a
// stable-partitioning contract (DESIGN.md §15).
//
// Every JobService lane used to treat each job as cold: iterative chains
// (PageRank, KMeans, chained query stages) reloaded their input shards from
// storage and reshuffled identical partitions on every iteration. The cache
// keeps a job's published records memory-resident across jobs:
//
//   * Datasets are named, immutable once committed, and keyed by a
//     monotonically increasing generation. A writer builds the next
//     generation shard-by-shard (framed records packed into shared blocks);
//     commit() publishes it atomically, abort() discards it.
//   * Shards are per node. A dataset remembers *how* its records were routed
//     to shards (the producing edge's partitioner, or "partitioned by key
//     hash"), so a consuming job can inherit the partitioner and placement
//     verbatim - scan splits pin to the shard's node and partition-aligned
//     downstream stages skip the shuffle entirely (aligned_edge()).
//   * Readers pin() a dataset: the returned handle is a ref-counted lease
//     that keeps the generation resident (never evicted) until released.
//     A miss returns null and the caller falls back to a cold load.
//   * Residency is budgeted against lane memory: committing past the byte
//     budget evicts unpinned datasets in LRU order. invalidate() removes a
//     name outright (the JobService calls it when a publishing job fails).
//
// Observability: cache.bytes_resident / cache.hit_rate gauges and
// cache.{hits,misses,evictions,invalidations} counters on node 0's registry
// (captured into JobResult::metrics like every node counter), plus
// kDatasetPin / kDatasetEvict EventLog records.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "obs/event_log.h"

namespace hamr::cache {

// (key, num_nodes) -> shard/node index; same signature as
// engine::EdgeOptions::partitioner. Must be deterministic and identical on
// every node.
using Partitioner = std::function<uint32_t(std::string_view, uint32_t)>;

// How a dataset's records were distributed across shards at publish time.
struct PublishOptions {
  // Custom partitioner the producing edge routed by (null = default key
  // hash, or no key-based placement at all - see key_partitioned).
  Partitioner partitioner;
  // True when shard n holds exactly the keys that partition to node n
  // (key-routed shuffle edges, reduce outputs). Enables the local-edge
  // shuffle skip for consumers keyed the same way.
  bool key_partitioned = false;
  // Caller-defined stamp (e.g. source row count or content hash). pin() with
  // a non-zero expected stamp treats a mismatch as a miss, guarding against
  // a stale dataset after its source changed.
  uint64_t stamp = 0;
};

// An immutable, committed dataset generation. Reachable only through pin()
// handles (and the writer that built it); safe to read from any thread.
class Dataset {
 public:
  // One node's shard: framed records packed into blocks of at most
  // Config::block_bytes (a larger record gets a block of its own). Record
  // layout within a block: (varint key_len | key | varint value_len |
  // value)*. Blocks are immutable; readers slice string_views out of them.
  struct Shard {
    std::vector<std::shared_ptr<const std::string>> blocks;
    uint64_t bytes = 0;
    uint64_t records = 0;
  };

  const std::string& name() const { return name_; }
  uint64_t generation() const { return generation_; }
  uint32_t nodes() const { return static_cast<uint32_t>(shards_.size()); }
  const Shard& shard(uint32_t node) const { return shards_.at(node); }
  const PublishOptions& options() const { return options_; }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_records() const { return total_records_; }

 private:
  friend class DatasetCache;
  friend class DatasetWriter;

  std::string name_;
  uint64_t generation_ = 0;
  PublishOptions options_;
  std::vector<Shard> shards_;
  uint64_t total_bytes_ = 0;
  uint64_t total_records_ = 0;
};

// Cursor-based walk over one shard's framed records. The views point into
// the shard's pinned blocks (valid for the life of the pin). `cursor` packs
// (block index << 40 | byte offset) so loaders can persist it in the
// engine's per-split uint64_t cursor.
struct ShardCursor {
  static constexpr uint64_t kPosBits = 40;
  uint64_t packed = 0;

  uint64_t block() const { return packed >> kPosBits; }
  uint64_t pos() const { return packed & ((uint64_t{1} << kPosBits) - 1); }
  void set(uint64_t block, uint64_t pos) {
    packed = (block << kPosBits) | pos;
  }
};

// Decodes the next record; returns false at end of shard. Throws
// serde::DecodeError on a corrupt block (cache corruption is a bug).
bool next_record(const Dataset::Shard& shard, ShardCursor* cursor,
                 std::string_view* key, std::string_view* value);

class DatasetCache;

// Builder for the next generation of one dataset. append() is thread-safe
// (per-shard locking) and callable from any node's worker threads - the
// usual producers are flowlet bodies and EdgeOptions taps. The generation
// becomes visible only on DatasetCache::commit(); a writer dropped without
// commit leaves the cache untouched.
class DatasetWriter {
 public:
  const std::string& name() const { return name_; }
  uint64_t generation() const { return generation_; }

  void append(uint32_t node, std::string_view key, std::string_view value);

  // Convenience forwards to the owning cache (it must outlive the writer).
  bool commit();
  void abort();

 private:
  friend class DatasetCache;

  DatasetWriter(DatasetCache* cache, std::string name, uint64_t generation,
                PublishOptions options, uint32_t nodes);

  struct ShardBuilder {
    std::mutex mu;
    std::string open_block;  // block under construction
    Dataset::Shard shard;
  };
  void seal_block(ShardBuilder& b);

  DatasetCache* cache_;
  std::string name_;
  uint64_t generation_;
  PublishOptions options_;
  std::vector<std::unique_ptr<ShardBuilder>> shards_;
};

class DatasetCache {
 public:
  struct Config {
    // Byte budget for resident (committed) datasets, typically carved from
    // the lane memory budget (e.g. EngineConfig::memory_budget_bytes / 4).
    // Pinned datasets are leases and may transiently overshoot it; eviction
    // only considers unpinned entries.
    uint64_t byte_budget = 16ull * 1024 * 1024;
    // Target packed size of one record block.
    uint64_t block_bytes = 256 * 1024;
    // Optional event log (not owned): kDatasetPin / kDatasetEvict.
    obs::EventLog* event_log = nullptr;
  };

  // Two overloads instead of `Config config = {}`: a nested class's default
  // member initializers cannot appear in a default argument before the
  // enclosing class is complete.
  explicit DatasetCache(cluster::Cluster& cluster);
  DatasetCache(cluster::Cluster& cluster, Config config);
  ~DatasetCache();

  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  // Starts building the next generation of `name`. Concurrent writers for
  // one name are allowed; the last commit wins.
  std::shared_ptr<DatasetWriter> begin(const std::string& name,
                                       PublishOptions options = {});

  // Publishes the writer's generation, replacing any previous generation of
  // the name, then evicts unpinned LRU entries until the resident bytes fit
  // the budget (the newly committed dataset is evicted last). Returns false
  // (and discards the data) when the name was invalidated after begin().
  bool commit(const std::shared_ptr<DatasetWriter>& writer);

  // Discards an uncommitted generation and counts an invalidation (the
  // failure path: the JobService aborts a failed job's writers).
  void abort(const std::shared_ptr<DatasetWriter>& writer);

  // Ref-counted read lease on the current generation; null on miss. The
  // dataset stays resident until every pin handle is released. When
  // `expected_stamp` is non-zero, a resident generation with a different
  // PublishOptions::stamp counts as a miss (stale source guard).
  std::shared_ptr<const Dataset> pin(const std::string& name,
                                     uint64_t expected_stamp = 0);

  // Drops the current generation of `name` (outstanding pins keep reading
  // their snapshot; new pins miss) and fences in-flight writers begun before
  // this call: their commit() will fail. No-op for unknown names.
  void invalidate(const std::string& name);

  uint64_t bytes_resident() const;
  uint64_t byte_budget() const { return config_.byte_budget; }
  obs::EventLog* event_log() const { return config_.event_log; }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };
  Stats stats() const;

 private:
  friend class DatasetWriter;

  struct Entry {
    std::shared_ptr<Dataset> data;
    uint64_t pins = 0;
    // Position in lru_ (valid when pins == 0 and resident).
    std::list<std::string>::iterator lru_it;
    bool in_lru = false;
    // Writers begun before an invalidate() must not commit over it.
    uint64_t min_commit_generation = 0;
  };

  bool commit_writer(DatasetWriter* writer);
  void abort_writer(DatasetWriter* writer);
  void release_pin(const std::string& name, uint64_t generation);
  void evict_to_budget_locked(const std::string& keep);
  void drop_entry_locked(const std::string& name, Entry& entry);
  void touch_locked(const std::string& name, Entry& entry);
  void update_gauges_locked();

  cluster::Cluster& cluster_;
  Config config_;
  // Liveness token for pin deleters: a lease released after the cache is
  // gone (e.g. an engine's last job graph holding a pin past the BenchEnv's
  // cache) must skip the refcount/LRU accounting, not touch freed memory.
  // The lease's own shared_ptr keeps the Dataset blocks readable either way.
  std::shared_ptr<DatasetCache*> alive_;

  Counter* hits_c_;
  Counter* misses_c_;
  Counter* evictions_c_;
  Counter* invalidations_c_;
  Gauge* bytes_resident_g_;
  Gauge* hit_rate_g_;
  Gauge* datasets_g_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  // LRU order of unpinned entries, least recent first.
  std::list<std::string> lru_;
  uint64_t bytes_resident_ = 0;
  uint64_t next_generation_ = 1;
  // Names invalidated while a writer was open: name -> first generation
  // allowed to commit.
  std::map<std::string, uint64_t> commit_fences_;
  Stats stats_;
};

}  // namespace hamr::cache

// CachedScanLoader: serve a pinned dataset's records as loader chunks, plus
// the publish/consume helpers that connect DatasetCache to flowlet graphs.
//
// Reading a cached dataset costs zero disk reads and zero deserialization:
// load_chunk() walks the shard's resident blocks with a ShardCursor and
// emits string_views sliced straight out of the pinned buffers (the engine
// copies them into bins, exactly as it does for any emit).
//
// Publishing rides on EdgeOptions::tap: publish_tap(base, writer) returns
// the edge options with a sender-side tap that appends each routed record
// to the writer shard of its *destination* node - so the dataset's shard
// layout is byte-for-byte the routing of the producing edge, which is what
// makes the stable-partitioning contract (aligned_edge) sound.
#pragma once

#include <memory>
#include <vector>

#include "cache/dataset_cache.h"
#include "engine/graph.h"
#include "engine/loaders.h"
#include "engine/split.h"

namespace hamr::cache {

// Loader over a pinned dataset: one split per node (see scan_splits),
// each walking that node's shard. The pin handle is held by the loader, so
// the dataset stays resident for the life of the job even if it is
// invalidated or evicted from the cache concurrently.
class CachedScanLoader : public engine::LoaderFlowlet {
 public:
  explicit CachedScanLoader(std::shared_ptr<const Dataset> dataset,
                            uint64_t records_per_chunk = 2048)
      : dataset_(std::move(dataset)),
        records_per_chunk_(records_per_chunk == 0 ? 1 : records_per_chunk) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override;

 private:
  std::shared_ptr<const Dataset> dataset_;
  const uint64_t records_per_chunk_;
};

// The splits of a source node scanning `dataset`: one synthetic split per
// shard, path "cache://<name>", preferred_node = shard index, user_tag =
// shard index. Placement inheritance: each shard is scanned on the node
// where its records already reside, so a cached scan moves zero bytes before
// the first edge.
std::vector<engine::InputSplit> scan_splits(const Dataset& dataset);

// Edge options for consuming a cached scan downstream with the shuffle
// skipped when it is provably safe: key_partitioned datasets scan each key
// on its owning node already, so a local edge reproduces the key-routed
// placement with zero network traffic. Datasets published with a custom
// partitioner inherit it; anything else falls back to the default key hash.
engine::EdgeOptions aligned_edge(const Dataset& dataset);

// Returns `base` with a tap that publishes every record routed over the
// edge into `writer`, sharded by destination node. Taps fire sender-side
// after routing, exactly once per emitted record (task crashes are injected
// before flowlet code runs, and the reliable channel dedups delivered
// bins), so the published dataset matches the delivered stream. Not valid
// on combine edges (validate() rejects the combination: combined records
// are folded before routing, so there is no per-record destination).
engine::EdgeOptions publish_tap(engine::EdgeOptions base,
                                std::shared_ptr<DatasetWriter> writer);

}  // namespace hamr::cache

#include "cache/scan_loader.h"

#include <utility>

namespace hamr::cache {

bool CachedScanLoader::load_chunk(const engine::InputSplit& split,
                                  uint64_t* cursor, engine::Context& ctx) {
  const uint32_t shard_idx = static_cast<uint32_t>(split.user_tag);
  if (shard_idx >= dataset_->nodes()) return false;
  const Dataset::Shard& shard = dataset_->shard(shard_idx);
  ShardCursor sc;
  sc.packed = *cursor;
  std::string_view key;
  std::string_view value;
  uint64_t emitted = 0;
  while (emitted < records_per_chunk_ && next_record(shard, &sc, &key, &value)) {
    // Views point into pinned resident blocks; the engine copies them into
    // outbound bins on emit, so no intermediate materialization happens.
    ctx.emit(0, key, value);
    ++emitted;
  }
  *cursor = sc.packed;
  return emitted == records_per_chunk_;
}

std::vector<engine::InputSplit> scan_splits(const Dataset& dataset) {
  std::vector<engine::InputSplit> splits;
  for (uint32_t n = 0; n < dataset.nodes(); ++n) {
    engine::InputSplit split;
    split.path = "cache://" + dataset.name();
    split.offset = 0;
    split.length = dataset.shard(n).bytes;
    split.preferred_node = n;
    split.user_tag = n;
    splits.push_back(std::move(split));
  }
  return splits;
}

engine::EdgeOptions aligned_edge(const Dataset& dataset) {
  engine::EdgeOptions options;
  if (dataset.options().key_partitioned) {
    // Shard n already holds exactly the keys routed to node n, and the scan
    // runs on node n (preferred_node). A local edge therefore reproduces the
    // key-partitioned placement without re-shuffling a single record.
    options.local = true;
  } else if (dataset.options().partitioner) {
    options.partitioner = dataset.options().partitioner;
  }
  return options;
}

engine::EdgeOptions publish_tap(engine::EdgeOptions base,
                                std::shared_ptr<DatasetWriter> writer) {
  base.tap = [writer = std::move(writer)](uint32_t dst_node,
                                          std::string_view key,
                                          std::string_view value) {
    writer->append(dst_node, key, value);
  };
  return base;
}

}  // namespace hamr::cache

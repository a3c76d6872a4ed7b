#include "cache/dataset_cache.h"

#include <algorithm>
#include <utility>

#include "serde/serde.h"

namespace hamr::cache {

bool next_record(const Dataset::Shard& shard, ShardCursor* cursor,
                 std::string_view* key, std::string_view* value) {
  uint64_t block = cursor->block();
  uint64_t pos = cursor->pos();
  // Skip fully consumed blocks (a block is never empty once sealed).
  while (block < shard.blocks.size() && pos >= shard.blocks[block]->size()) {
    ++block;
    pos = 0;
  }
  if (block >= shard.blocks.size()) return false;
  const std::string& data = *shard.blocks[block];
  serde::Reader reader(std::string_view(data).substr(pos));
  *key = reader.get_bytes();
  *value = reader.get_bytes();
  cursor->set(block, pos + reader.position());
  return true;
}

// ---------------------------------------------------------------------------
// DatasetWriter

DatasetWriter::DatasetWriter(DatasetCache* cache, std::string name,
                             uint64_t generation, PublishOptions options,
                             uint32_t nodes)
    : cache_(cache),
      name_(std::move(name)),
      generation_(generation),
      options_(std::move(options)) {
  shards_.reserve(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    shards_.push_back(std::make_unique<ShardBuilder>());
  }
}

void DatasetWriter::append(uint32_t node, std::string_view key,
                           std::string_view value) {
  ShardBuilder& b = *shards_.at(node);
  const uint64_t block_bytes = cache_->config_.block_bytes;
  const uint64_t record = serde::varint_size(key.size()) + key.size() +
                          serde::varint_size(value.size()) + value.size();
  std::lock_guard<std::mutex> lock(b.mu);
  // Seal before a record would cross the target, so a block never outgrows
  // the buffer reserved for it: growing past the reservation would copy the
  // block into one of twice the size. A record larger than the target gets
  // a block of its own, sized to fit.
  if (b.open_block.size() + record > block_bytes) seal_block(b);
  if (b.open_block.empty()) b.open_block.reserve(std::max(block_bytes, record));
  serde::put_varint(b.open_block, key.size());
  b.open_block.append(key.data(), key.size());
  serde::put_varint(b.open_block, value.size());
  b.open_block.append(value.data(), value.size());
  b.shard.records++;
}

void DatasetWriter::seal_block(ShardBuilder& b) {
  if (b.open_block.empty()) return;
  b.shard.bytes += b.open_block.size();
  b.shard.blocks.push_back(
      std::make_shared<const std::string>(std::move(b.open_block)));
  b.open_block = std::string();
}

bool DatasetWriter::commit() { return cache_->commit_writer(this); }
void DatasetWriter::abort() { cache_->abort_writer(this); }

// ---------------------------------------------------------------------------
// DatasetCache

DatasetCache::DatasetCache(cluster::Cluster& cluster)
    : DatasetCache(cluster, Config{}) {}

DatasetCache::DatasetCache(cluster::Cluster& cluster, Config config)
    : cluster_(cluster),
      config_(config),
      alive_(std::make_shared<DatasetCache*>(this)) {
  // Cache-wide counters live on node 0's registry: the engine snapshots every
  // node's metrics around a run, so cache activity lands in
  // JobResult::metrics (and bench harvest) without extra plumbing.
  Metrics& m = cluster_.node(0).metrics();
  hits_c_ = m.counter("cache.hits");
  misses_c_ = m.counter("cache.misses");
  evictions_c_ = m.counter("cache.evictions");
  invalidations_c_ = m.counter("cache.invalidations");
  bytes_resident_g_ = m.gauge("cache.bytes_resident");
  hit_rate_g_ = m.gauge("cache.hit_rate");
  datasets_g_ = m.gauge("cache.datasets");
}

DatasetCache::~DatasetCache() {
  // Drop the liveness token first: pin leases released from now on (job
  // graphs can outlive the cache) see an expired weak_ptr and no-op.
  alive_.reset();
}

std::shared_ptr<DatasetWriter> DatasetCache::begin(const std::string& name,
                                                   PublishOptions options) {
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = next_generation_++;
  }
  // Private constructor: can't use make_shared.
  return std::shared_ptr<DatasetWriter>(new DatasetWriter(
      this, name, generation, std::move(options), cluster_.size()));
}

bool DatasetCache::commit(const std::shared_ptr<DatasetWriter>& writer) {
  return writer->commit();
}

void DatasetCache::abort(const std::shared_ptr<DatasetWriter>& writer) {
  writer->abort();
}

bool DatasetCache::commit_writer(DatasetWriter* writer) {
  auto data = std::make_shared<Dataset>();
  data->name_ = writer->name_;
  data->generation_ = writer->generation_;
  data->options_ = writer->options_;
  data->shards_.resize(writer->shards_.size());
  for (size_t n = 0; n < writer->shards_.size(); ++n) {
    DatasetWriter::ShardBuilder& b = *writer->shards_[n];
    std::lock_guard<std::mutex> lock(b.mu);
    writer->seal_block(b);
    data->shards_[n] = std::move(b.shard);
    b.shard = Dataset::Shard();
    data->total_bytes_ += data->shards_[n].bytes;
    data->total_records_ += data->shards_[n].records;
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto fence = commit_fences_.find(writer->name_);
  if (fence != commit_fences_.end() && writer->generation_ < fence->second) {
    // The name was invalidated after this writer began: its input may have
    // been produced against state that no longer holds. Discard.
    return false;
  }
  auto [it, inserted] = entries_.try_emplace(writer->name_);
  Entry& entry = it->second;
  if (!inserted && entry.data) drop_entry_locked(it->first, entry);
  entry.data = std::move(data);
  entry.pins = 0;
  bytes_resident_ += entry.data->total_bytes_;
  touch_locked(it->first, entry);
  evict_to_budget_locked(writer->name_);
  update_gauges_locked();
  return true;
}

void DatasetCache::abort_writer(DatasetWriter* writer) {
  for (auto& b : writer->shards_) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->shard = Dataset::Shard();
    b->open_block = std::string();
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations++;
  invalidations_c_->inc();
}

std::shared_ptr<const Dataset> DatasetCache::pin(const std::string& name,
                                                 uint64_t expected_stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  const bool stale =
      it != entries_.end() && it->second.data && expected_stamp != 0 &&
      it->second.data->options_.stamp != expected_stamp;
  if (it == entries_.end() || !it->second.data || stale) {
    stats_.misses++;
    misses_c_->inc();
    update_gauges_locked();
    return nullptr;
  }
  Entry& entry = it->second;
  // Pinned entries leave the LRU list: they are not eviction candidates.
  if (entry.in_lru) {
    lru_.erase(entry.lru_it);
    entry.in_lru = false;
  }
  entry.pins++;
  stats_.hits++;
  hits_c_->inc();
  update_gauges_locked();
  if (config_.event_log != nullptr) {
    config_.event_log->record(
        0, obs::EventKind::kDatasetPin, /*flowlet=*/-1,
        static_cast<int64_t>(entry.data->generation_));
  }
  // The handle aliases the Dataset but its deleter releases the pin. It also
  // keeps `data` alive even if the entry is replaced/invalidated, so readers
  // of a superseded generation are never pulled out from under. The deleter
  // holds the cache weakly: a lease released after the cache's destruction
  // skips the accounting instead of touching freed memory.
  std::shared_ptr<Dataset> data = entry.data;
  const uint64_t generation = data->generation_;
  std::weak_ptr<DatasetCache*> alive = alive_;
  return std::shared_ptr<const Dataset>(
      data.get(), [alive, data, name, generation](const Dataset*) mutable {
        if (const auto cache = alive.lock()) {
          (*cache)->release_pin(name, generation);
        }
        data.reset();
      });
}

void DatasetCache::release_pin(const std::string& name, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  // The entry may have been replaced by a newer generation or invalidated
  // while this pin was out; only the matching generation's refcount applies.
  if (it == entries_.end() || !it->second.data ||
      it->second.data->generation_ != generation) {
    return;
  }
  Entry& entry = it->second;
  if (entry.pins > 0) entry.pins--;
  if (entry.pins == 0) {
    touch_locked(it->first, entry);
    evict_to_budget_locked(/*keep=*/"");
    update_gauges_locked();
  }
}

void DatasetCache::invalidate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  // Fence out in-flight writers for this name regardless of residency.
  commit_fences_[name] = next_generation_++;
  auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.data) return;
  drop_entry_locked(it->first, it->second);
  entries_.erase(it);
  stats_.invalidations++;
  invalidations_c_->inc();
  update_gauges_locked();
}

void DatasetCache::evict_to_budget_locked(const std::string& keep) {
  // Least-recently-used unpinned datasets go first; `keep` (a dataset
  // committed this instant) is only evicted when nothing else is left, so a
  // fresh commit larger than the whole budget still serves its first reader.
  while (bytes_resident_ > config_.byte_budget && !lru_.empty()) {
    std::string victim = lru_.front();
    if (victim == keep && lru_.size() == 1) break;
    if (victim == keep) {
      // Rotate: try the next candidate first.
      lru_.pop_front();
      lru_.push_back(victim);
      entries_.at(victim).lru_it = std::prev(lru_.end());
      continue;
    }
    auto it = entries_.find(victim);
    drop_entry_locked(it->first, it->second);
    entries_.erase(it);
    stats_.evictions++;
    evictions_c_->inc();
  }
}

void DatasetCache::drop_entry_locked(const std::string& name, Entry& entry) {
  (void)name;
  if (entry.in_lru) {
    lru_.erase(entry.lru_it);
    entry.in_lru = false;
  }
  if (entry.data) {
    bytes_resident_ -= entry.data->total_bytes_;
    if (config_.event_log != nullptr) {
      config_.event_log->record(
          0, obs::EventKind::kDatasetEvict, /*flowlet=*/-1,
          static_cast<int64_t>(entry.data->total_bytes_));
    }
    // Outstanding pins keep their snapshot readable; the last one to drop
    // a block frees it.
    entry.data.reset();
  }
  entry.pins = 0;
}

void DatasetCache::touch_locked(const std::string& name, Entry& entry) {
  if (entry.in_lru) lru_.erase(entry.lru_it);
  lru_.push_back(name);
  entry.lru_it = std::prev(lru_.end());
  entry.in_lru = true;
}

void DatasetCache::update_gauges_locked() {
  bytes_resident_g_->set(static_cast<int64_t>(bytes_resident_));
  datasets_g_->set(static_cast<int64_t>(entries_.size()));
  const uint64_t total = stats_.hits + stats_.misses;
  hit_rate_g_->set(total == 0 ? 0
                              : static_cast<int64_t>(stats_.hits * 100 / total));
}

uint64_t DatasetCache::bytes_resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_resident_;
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hamr::cache

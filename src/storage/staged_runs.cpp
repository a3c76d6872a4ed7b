#include "storage/staged_runs.h"

#include <algorithm>
#include <array>

namespace hamr::storage {

void sort_recs(std::vector<Rec>* recs) {
  const size_t n = recs->size();
  // Below this the comparison sort is faster: eight histograms and up to
  // eight 256-bucket passes cost more than n log n compares until about
  // 600-700 records (random, decimal and word keys alike).
  constexpr size_t kRadixMin = 768;
  if (n < kRadixMin) {
    std::stable_sort(recs->begin(), recs->end(), rec_less);
    return;
  }

  // One read pass fills the histogram of every prefix byte (byte 0 is the
  // least significant) and decides whether the tie pass can be skipped.
  std::array<std::array<size_t, 256>, 8> counts{};
  uint32_t min_len = UINT32_MAX;
  uint32_t max_len = 0;
  for (const Rec& r : *recs) {
    for (int b = 0; b < 8; ++b) ++counts[b][(r.prefix >> (8 * b)) & 0xff];
    min_len = std::min(min_len, r.key_len);
    max_len = std::max(max_len, r.key_len);
  }

  std::vector<Rec> scratch(n);
  Rec* src = recs->data();
  Rec* dst = scratch.data();
  for (int b = 0; b < 8; ++b) {
    std::array<size_t, 256>& count = counts[b];
    const int shift = 8 * b;
    if (count[(src[0].prefix >> shift) & 0xff] == n) continue;  // constant byte
    size_t offset = 0;
    for (size_t& c : count) {
      const size_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(src[i].prefix >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != recs->data()) recs->swap(scratch);

  // Equal prefixes and equal lengths of at most 8 bytes mean equal keys.
  if (max_len <= 8 && min_len == max_len) return;
  const auto key_less = [](const Rec& a, const Rec& b) { return a.key() < b.key(); };
  Rec* a = recs->data();
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && a[j].prefix == a[i].prefix) ++j;
    if (j - i > 1 && !std::is_sorted(a + i, a + j, key_less)) {
      std::stable_sort(a + i, a + j, key_less);
    }
    i = j;
  }
}

uint64_t run_file_bytes(const std::vector<Rec>& recs) {
  uint64_t bytes = 0;
  for (const Rec& r : recs) bytes += RunWriter::record_bytes(r.key_len, r.value_len);
  return bytes;
}

SpillBatch StagedRuns::take_batch(std::string path) {
  SpillBatch batch;
  batch.store = store_;
  batch.arena = std::exchange(arena_, Arena(gauge_));
  batch.recs.swap(index_);
  batch.path = std::move(path);
  runs_.push_back(batch.path);
  return batch;
}

LoserTree<StagedSource> StagedRuns::merge() {
  sort_recs(&index_);
  std::vector<StagedSource> sources;
  sources.reserve(runs_.size() + 1);
  for (const std::string& path : runs_) sources.emplace_back(RunReader(store_, path));
  sources.emplace_back(index_);
  return LoserTree<StagedSource>(std::move(sources));
}

uint64_t StagedRuns::merged_bytes() const {
  uint64_t bytes = run_file_bytes(index_);
  for (const std::string& path : runs_) bytes += store_->file_size(path).value_or(0);
  return bytes;
}

void StagedRuns::clear() {
  index_.clear();
  index_.shrink_to_fit();
  arena_.clear();
  for (const std::string& path : runs_) (void)store_->remove(path);
  runs_.clear();
}

}  // namespace hamr::storage

#include "sort/partitioner.h"

#include <algorithm>

#include "serde/serde.h"

namespace hamr::sort {

KeySampler::KeySampler(size_t capacity, uint64_t seed)
    : capacity_(capacity), state_(seed == 0 ? 0x9e3779b97f4a7c15ull : seed) {}

uint64_t KeySampler::next_rand() {
  // xorshift64*: tiny, seedable, plenty for reservoir selection.
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  return state_ * 0x2545f4914f6cdd1dull;
}

void KeySampler::add(std::string_view key) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.emplace_back(key);
    return;
  }
  // Classic reservoir step: element i replaces a slot with probability
  // capacity/i, keeping every prefix uniformly represented.
  const uint64_t j = next_rand() % seen_;
  if (j < capacity_) samples_[j] = key;  // reuses the slot's buffer
}

RangePartitioner RangePartitioner::from_samples(std::vector<std::string> samples,
                                                uint32_t parts) {
  RangePartitioner p;
  if (parts <= 1 || samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (uint32_t i = 1; i < parts; ++i) {
    const std::string& b = samples[i * n / parts];
    if (!p.boundaries_.empty() && p.boundaries_.back() == b) continue;
    p.boundaries_.push_back(b);
  }
  return p;
}

uint32_t RangePartitioner::partition_of(std::string_view key) const {
  const auto it = std::upper_bound(
      boundaries_.begin(), boundaries_.end(), key,
      [](std::string_view k, const std::string& b) { return k < b; });
  return static_cast<uint32_t>(it - boundaries_.begin());
}

std::string RangePartitioner::encode() const {
  ByteBuffer buf;
  serde::Writer w(buf);
  w.put_varint(boundaries_.size());
  for (const std::string& b : boundaries_) w.put_bytes(b);
  return std::string(buf.view());
}

RangePartitioner RangePartitioner::decode(std::string_view data) {
  RangePartitioner p;
  serde::Reader r(data);
  const uint64_t n = r.get_varint();
  p.boundaries_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) p.boundaries_.emplace_back(r.get_bytes());
  return p;
}

std::function<uint32_t(std::string_view, uint32_t)>
RangePartitioner::as_edge_partitioner() const {
  return [p = *this](std::string_view key, uint32_t num_nodes) -> uint32_t {
    if (num_nodes == 0) return 0;
    const uint32_t part = p.partition_of(key);
    return part < num_nodes ? part : num_nodes - 1;
  };
}

}  // namespace hamr::sort

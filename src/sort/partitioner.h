// Range partitioning for TeraSort-class distributed sorts.
//
// A hash partitioner balances load but destroys order; a sorted output needs
// every key on node i to be <= every key on node i+1. The classic TeraSort
// answer: sample the input, pick p-1 quantile boundaries, and route each key
// to the partition whose range contains it. KeySampler is the seeded
// (deterministic) reservoir used for the sampling pass, one per node, each
// over that node's input only (sort::sample_partitioner); RangePartitioner
// holds the boundaries built from their joined samples and plugs into the
// engine via EdgeOptions::partitioner.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace hamr::sort {

// Uniform reservoir sampler over a key stream. Deterministic for a given
// (capacity, seed, stream): every node and the driver can reproduce the
// same sample without coordination. Once full, a replaced slot reuses its
// string's buffer.
class KeySampler {
 public:
  KeySampler(size_t capacity, uint64_t seed);

  void add(std::string_view key);

  uint64_t seen() const { return seen_; }
  const std::vector<std::string>& samples() const { return samples_; }
  std::vector<std::string> take_samples() { return std::move(samples_); }

 private:
  uint64_t next_rand();

  size_t capacity_;
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<std::string> samples_;
};

// p-way range partitioner: boundaries b_1 <= ... <= b_{p-1} split the key
// space into p ranges; partition_of(key) counts the boundaries <= key, so
// outputs are monotone in key order - concatenating partition outputs in
// index order yields a globally sorted sequence.
class RangePartitioner {
 public:
  RangePartitioner() = default;

  // Builds balanced boundaries from a key sample: the samples are sorted and
  // boundaries placed at the i*n/parts quantiles. Duplicate boundaries
  // (skew: one hot key dominating the sample) are collapsed, so heavy
  // duplicates cost partitions, never correctness.
  static RangePartitioner from_samples(std::vector<std::string> samples,
                                       uint32_t parts);

  uint32_t partitions() const {
    return static_cast<uint32_t>(boundaries_.size()) + 1;
  }
  const std::vector<std::string>& boundaries() const { return boundaries_; }

  // Monotone: key_a <= key_b implies partition_of(a) <= partition_of(b).
  uint32_t partition_of(std::string_view key) const;

  // Wire form, for shipping the driver's boundaries to job submissions.
  std::string encode() const;
  static RangePartitioner decode(std::string_view data);

  // Engine hook for EdgeOptions::partitioner; the partition index is clamped
  // into [0, num_nodes) so a partitioner built for p > n nodes still routes
  // validly (at some balance cost).
  std::function<uint32_t(std::string_view, uint32_t)> as_edge_partitioner() const;

 private:
  std::vector<std::string> boundaries_;
};

}  // namespace hamr::sort

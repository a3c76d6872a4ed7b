// Deterministic, fast random number generation.
//
// All workload generators take explicit seeds so every experiment is exactly
// reproducible; we avoid std::mt19937 for speed and for a stable cross-
// platform stream.
#pragma once

#include <cstdint>

namespace hamr {

// SplitMix64 - used to seed other generators and for cheap hashing of seeds.
inline uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** by Blackman & Vigna - the main workhorse generator.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) {
    uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  uint64_t next_u64() {
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t next_below(uint64_t bound) {
    // Lemire's multiply-shift rejection-free-enough reduction.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool next_bool(double p_true) { return next_double() < p_true; }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// Zipfian sampler over {0, 1, ..., n-1} with exponent `theta` (typically
// ~0.99 for "web-like" skew). Uses the Gray/Jim-Gray YCSB rejection-free
// formula; O(1) per sample after O(n)-free setup.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);

  uint64_t sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double threshold_;  // 1 + 0.5^theta
};

}  // namespace hamr

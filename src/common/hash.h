// Hashing used for key partitioning and container keys.
//
// Partitioning must be stable across runs and platforms (the tests pin golden
// partition assignments), so we implement FNV-1a + an avalanche finalizer
// rather than relying on std::hash.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace hamr {

inline uint64_t fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Murmur3-style finalizer; spreads low-entropy FNV outputs before modulo.
inline uint64_t mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline uint64_t hash_bytes(std::string_view bytes) {
  return mix64(fnv1a64(bytes.data(), bytes.size()));
}

inline uint64_t hash_combine(uint64_t a, uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

// Deterministic key -> partition mapping shared by the engine shuffle, the
// baseline shuffle, and the KV store (so locality reasoning lines up).
inline uint32_t partition_of(std::string_view key, uint32_t num_partitions) {
  return num_partitions == 0
             ? 0
             : static_cast<uint32_t>(hash_bytes(key) % num_partitions);
}

}  // namespace hamr

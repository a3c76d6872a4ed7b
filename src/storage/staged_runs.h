// Staged records and sorted spill runs: the one stage -> sort -> spill ->
// merge path behind the engine's reduce stages and the distributed sort's
// sink, plus the k-way merge every run merge in the repo goes through (the
// MapReduce baseline's included).
//
// StagedRuns buffers records in a chunked arena behind an index of 8-byte
// big-endian key prefixes. Past its caller's memory budget the caller takes
// the in-memory records out as a SpillBatch, which sorts them and writes one
// run file. At the end, merge() sorts what is still in memory and merges it
// with every run through one loser tree: runs in the order they were taken,
// memory last, key ties to the earlier source, so same-key records come out
// in arrival order. clear() drops the arena and deletes the runs.
//
// The memory budget, the spill write's failure policy and the naming of run
// files stay with each caller. StagedRuns is not thread-safe: callers stage
// and take batches under their own lock, and write batches outside it.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "storage/file_store.h"
#include "storage/run_file.h"

namespace hamr::storage {

// Big-endian 8-byte key prefix: integer compare of prefixes orders exactly
// like the lexicographic compare of the first 8 key bytes, so the staging
// sort only touches key bytes on a prefix tie.
inline uint64_t key_prefix(std::string_view key) {
  uint64_t p = 0;
  const size_t n = key.size() < 8 ? key.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    p |= static_cast<uint64_t>(static_cast<uint8_t>(key[i])) << (56 - 8 * i);
  }
  return p;
}

// One staged record: key bytes at [data, data+key_len), value bytes
// immediately after, with the key's prefix cached beside them.
struct Rec {
  uint64_t prefix = 0;
  uint32_t key_len = 0;
  uint32_t value_len = 0;
  const char* data = nullptr;
  std::string_view key() const { return {data, key_len}; }
  std::string_view value() const { return {data + key_len, value_len}; }
};

// Orders staged records by key (prefix first); stable sorts with it keep
// same-key values in arrival order.
inline bool rec_less(const Rec& a, const Rec& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  return a.key() < b.key();
}

// The one sort of staged records. Leaves *recs exactly as
// std::stable_sort(..., rec_less) would: an LSD radix sort over the 8-byte
// prefix, skipping every byte that is equal in all records, then a stable
// key compare only inside runs of equal prefix that the prefix does not
// decide (a key longer than 8 bytes, or keys of different lengths: "a" and
// "a\0" share a prefix). Both passes are stable, so same-key records keep
// arrival order. The scratch buffer lives for the call only.
void sort_recs(std::vector<Rec>* recs);

// Exact run-file size of `recs` once written: the RunWriter size hint of a
// spill or of a merge that re-encodes them.
uint64_t run_file_bytes(const std::vector<Rec>& recs);

// K-way merge via a loser tree (tree of losers selection sort): after the
// winner is consumed, only the path from its leaf to the root is replayed,
// so a merge costs O(log k) comparisons per record instead of a best-of-k
// scan's O(k).
//
// Source concept:
//   bool next(std::string_view* key, std::string_view* value);
//     Advances to the next record, filling the views, or returns false when
//     exhausted. Views must stay valid until the source's following next()
//     call (arena- or file-buffer-backed sources satisfy this trivially).
//
// Stability: ties are broken by the smaller source index, so listing spill
// runs in creation order followed by the in-memory run reproduces exactly
// the arrival-order semantics of a stable merge.
template <typename Source>
class LoserTree {
 public:
  explicit LoserTree(std::vector<Source> sources)
      : sources_(std::move(sources)),
        k_(sources_.size()),
        tree_(k_, 0),
        prefix_(k_, 0),
        key_(k_),
        value_(k_),
        exhausted_(k_, false) {}

  size_t fan_in() const { return k_; }

  // Pops the globally smallest record. The output views point into the
  // winning source and remain valid until the next call.
  bool next(std::string_view* key, std::string_view* value) {
    if (k_ == 0) return false;
    if (!started_) {
      for (size_t i = 0; i < k_; ++i) advance(i);
      winner_ = build(1);
      started_ = true;
    } else {
      // Advance the previous winner only now: pulling its source earlier
      // would invalidate the views handed out by the last call.
      advance(winner_);
      replay();
    }
    if (exhausted_[winner_]) return false;
    *key = key_[winner_];
    *value = value_[winner_];
    return true;
  }

 private:
  void advance(size_t i) {
    if (exhausted_[i]) return;
    if (!sources_[i].next(&key_[i], &value_[i])) {
      exhausted_[i] = true;
      key_[i] = {};
      value_[i] = {};
    }
    prefix_[i] = key_prefix(key_[i]);
  }

  // True when source a must come out before source b. Exhausted sources
  // always lose; the cached prefixes decide most pairs with one integer
  // compare, one full key compare settles a prefix tie ("a" and "a\0" share
  // a prefix), and key ties go to the smaller index (stability).
  bool wins(size_t a, size_t b) const {
    if (exhausted_[a]) return false;
    if (exhausted_[b]) return true;
    if (prefix_[a] != prefix_[b]) return prefix_[a] < prefix_[b];
    const int c = key_[a].compare(key_[b]);
    if (c != 0) return c < 0;
    return a < b;
  }

  // Array-heap layout: internal nodes 1..k-1 hold the loser of their
  // subtree's playoff; leaf node k+i is source i. Returns the subtree
  // winner; called once as build(1) after the leaves are primed.
  size_t build(size_t node) {
    if (node >= k_) return node - k_;
    const size_t l = build(2 * node);
    const size_t r = build(2 * node + 1);
    const size_t w = wins(l, r) ? l : r;
    tree_[node] = w == l ? r : l;
    return w;
  }

  // Replays the path from the previous winner's leaf to the root against
  // the stored losers.
  void replay() {
    size_t w = winner_;
    for (size_t node = (w + k_) / 2; node >= 1; node /= 2) {
      if (wins(tree_[node], w)) std::swap(tree_[node], w);
    }
    winner_ = w;
  }

  std::vector<Source> sources_;
  size_t k_;
  std::vector<size_t> tree_;
  std::vector<uint64_t> prefix_;  // key_prefix(key_[i]), set by advance()
  std::vector<std::string_view> key_;
  std::vector<std::string_view> value_;
  // vector<char>, not vector<bool>: flags are read in the comparator's
  // innermost path.
  std::vector<char> exhausted_;
  size_t winner_ = 0;
  bool started_ = false;
};

// Drains a merge in key order and calls fn(key, values) once per run of
// equal keys, values in merge order. The merge's sources must keep every
// view valid until the merge is destroyed (run readers and staged records
// do), because a group's views are collected across next() calls.
template <typename Merge, typename Fn>
void merge_groups(Merge& merge, Fn&& fn) {
  std::string_view group_key;
  std::vector<std::string_view> values;
  std::string_view key, value;
  while (merge.next(&key, &value)) {
    if (!values.empty() && key != group_key) {
      fn(group_key, values);
      values.clear();
    }
    if (values.empty()) group_key = key;
    values.push_back(value);
  }
  if (!values.empty()) fn(group_key, values);
}

// One input of a staged merge: a spill run or the sorted in-memory records.
class StagedSource {
 public:
  explicit StagedSource(RunReader run) : run_(std::move(run)) {}
  explicit StagedSource(const std::vector<Rec>& mem)
      : pos_(mem.data()), end_(mem.data() + mem.size()) {}

  bool next(std::string_view* key, std::string_view* value) {
    if (run_) return run_->next(key, value);
    if (pos_ == end_) return false;
    *key = pos_->key();
    *value = pos_->value();
    ++pos_;
    return true;
  }

 private:
  std::optional<RunReader> run_;
  const Rec* pos_ = nullptr;
  const Rec* end_ = nullptr;
};

// Records taken out of a StagedRuns to become one spill run. The batch owns
// the arena that holds their bytes, so it can be sorted and written after
// the caller's staging lock is released.
struct SpillBatch {
  FileStore* store = nullptr;
  Arena arena;
  std::vector<Rec> recs;
  std::string path;

  bool empty() const { return recs.empty(); }

  // Sorts the records and encodes them as the run file at `path`; `close`
  // finishes the RunWriter under the caller's write-failure policy.
  template <typename Close>
  void write(Close&& close) {
    sort_recs(&recs);
    RunWriter writer(store, path, run_file_bytes(recs));
    for (const Rec& r : recs) writer.add(r.key(), r.value());
    close(writer);
  }
};

class StagedRuns {
 public:
  // Runs are written to `store`; every arena's chunks are charged to
  // `arena_gauge` (nullable).
  explicit StagedRuns(FileStore* store = nullptr, Gauge* arena_gauge = nullptr)
      : store_(store), gauge_(arena_gauge), arena_(arena_gauge) {}

  // Copies one record into the arena and indexes it: one arena bump holds
  // key and value contiguously.
  void stage(std::string_view key, std::string_view value) {
    char* data = arena_.alloc(key.size() + value.size());
    std::memcpy(data, key.data(), key.size());
    std::memcpy(data + key.size(), value.data(), value.size());
    Rec rec;
    rec.prefix = key_prefix(key);
    rec.key_len = static_cast<uint32_t>(key.size());
    rec.value_len = static_cast<uint32_t>(value.size());
    rec.data = data;
    index_.push_back(rec);
  }

  // The spill runs taken so far, in order.
  const std::vector<std::string>& runs() const { return runs_; }

  // Moves the in-memory records (and the arena holding them) out as a batch
  // that becomes the run at `path`, registered as the next run, and re-arms
  // an empty arena.
  SpillBatch take_batch(std::string path);

  // Sorts the in-memory records and returns a merge of every run (in the
  // order taken) followed by them. The merge's views stay valid until
  // clear(); stage nothing while it is in use.
  LoserTree<StagedSource> merge();

  // Exact run-file size of everything merge() yields.
  uint64_t merged_bytes() const;

  // Drops the in-memory records and their arena and deletes every run.
  void clear();

 private:
  FileStore* store_;
  Gauge* gauge_;
  Arena arena_;
  std::vector<Rec> index_;
  std::vector<std::string> runs_;
};

}  // namespace hamr::storage

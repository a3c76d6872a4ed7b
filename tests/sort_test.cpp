// Tests for the distributed sort subsystem (src/sort/): range partitioner
// boundary behavior on skewed / duplicate-heavy / empty inputs, the k-way
// loser-tree merge against a reference, the staged-record sort kernel
// against std::stable_sort, the batch serde codecs, the end-to-end sort with
// spills over the zero-copy reliable shuffle, and the node-parallel sampling
// pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "apps/common.h"
#include "common/random.h"
#include "fault/fault.h"
#include "query/row.h"
#include "serde/batch.h"
#include "sort/partitioner.h"
#include "sort/sort.h"
#include "storage/staged_runs.h"

using namespace hamr;

namespace {

std::vector<std::string> random_records(size_t n, uint64_t seed,
                                        size_t min_len = 8,
                                        size_t max_len = 64) {
  Rng rng(seed);
  std::vector<std::string> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t len = min_len + rng.next_below(max_len - min_len + 1);
    std::string rec;
    rec.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      rec.push_back(static_cast<char>(rng.next_below(256)));
    }
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace

// --- KeySampler -------------------------------------------------------------

TEST(KeySampler, DeterministicForSeedAndBoundedByCapacity) {
  const auto stream = random_records(5000, 3);
  sort::KeySampler a(64, 99), b(64, 99);
  for (const auto& r : stream) {
    a.add(r);
    b.add(r);
  }
  EXPECT_EQ(a.seen(), stream.size());
  EXPECT_EQ(a.samples().size(), 64u);
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(KeySampler, DifferentSeedsDiverge) {
  const auto stream = random_records(5000, 3);
  sort::KeySampler a(64, 1), b(64, 2);
  for (const auto& r : stream) {
    a.add(r);
    b.add(r);
  }
  EXPECT_NE(a.samples(), b.samples());
}

// --- RangePartitioner -------------------------------------------------------

TEST(RangePartitioner, BalancedPartitionsOnUniformKeys) {
  const auto keys = random_records(4000, 7, 16, 16);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 4);
  ASSERT_EQ(p.partitions(), 4u);
  std::vector<size_t> sizes(4, 0);
  for (const auto& k : keys) ++sizes[p.partition_of(k)];
  for (size_t s : sizes) {
    EXPECT_GT(s, keys.size() / 8);  // no partition under half its fair share
    EXPECT_LT(s, keys.size() / 2);
  }
}

TEST(RangePartitioner, MonotoneInKeyOrder) {
  auto keys = random_records(1000, 11);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 8);
  std::sort(keys.begin(), keys.end());
  uint32_t prev = 0;
  for (const auto& k : keys) {
    const uint32_t part = p.partition_of(k);
    EXPECT_GE(part, prev);
    EXPECT_LT(part, p.partitions());
    prev = part;
  }
}

TEST(RangePartitioner, DuplicateHeavySamplesCollapseBoundaries) {
  // One hot key dominates the sample: boundaries must stay strictly
  // increasing (duplicates collapsed), costing partitions but never
  // correctness.
  std::vector<std::string> samples(900, "hot-key");
  samples.push_back("aaa");
  samples.push_back("zzz");
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(samples, 8);
  const auto& b = p.boundaries();
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_LE(p.partitions(), 8u);
  EXPECT_LT(p.partition_of("hot-key"), p.partitions());
  EXPECT_LE(p.partition_of("aaa"), p.partition_of("hot-key"));
  EXPECT_LE(p.partition_of("hot-key"), p.partition_of("zzz"));
}

TEST(RangePartitioner, EmptySamplesYieldSinglePartition) {
  sort::RangePartitioner p = sort::RangePartitioner::from_samples({}, 8);
  EXPECT_EQ(p.partitions(), 1u);
  EXPECT_EQ(p.partition_of("anything"), 0u);
  EXPECT_EQ(p.partition_of(""), 0u);
}

TEST(RangePartitioner, EncodeDecodeRoundTrip) {
  const auto keys = random_records(500, 17);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 6);
  sort::RangePartitioner q = sort::RangePartitioner::decode(p.encode());
  EXPECT_EQ(p.boundaries(), q.boundaries());
  for (const auto& k : keys) EXPECT_EQ(p.partition_of(k), q.partition_of(k));
}

TEST(RangePartitioner, EdgePartitionerClampsIntoNodeRange) {
  // Built for 8 parts but routed across 3 nodes: clamped, still monotone.
  auto keys = random_records(500, 23);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 8);
  auto route = p.as_edge_partitioner();
  std::sort(keys.begin(), keys.end());
  uint32_t prev = 0;
  for (const auto& k : keys) {
    const uint32_t n = route(k, 3);
    EXPECT_LT(n, 3u);
    EXPECT_GE(n, prev);
    prev = n;
  }
}

// --- LoserTree --------------------------------------------------------------

namespace {

// A sorted in-memory run exposing the merge-source contract.
struct VecSource {
  std::vector<std::pair<std::string, std::string>> recs;
  size_t pos = 0;
  bool next(std::string_view* key, std::string_view* value) {
    if (pos >= recs.size()) return false;
    *key = recs[pos].first;
    *value = recs[pos].second;
    ++pos;
    return true;
  }
};

std::vector<std::pair<std::string, std::string>> drain(
    storage::LoserTree<VecSource>& tree) {
  std::vector<std::pair<std::string, std::string>> out;
  std::string_view key, value;
  while (tree.next(&key, &value)) out.emplace_back(key, value);
  return out;
}

}  // namespace

TEST(LoserTree, MergesSeededRunsLikeReference) {
  Rng rng(31);
  std::vector<VecSource> sources(7);
  std::vector<std::pair<std::string, std::string>> all;
  for (auto& src : sources) {
    const size_t n = rng.next_below(200);
    for (size_t i = 0; i < n; ++i) {
      src.recs.emplace_back("k" + std::to_string(rng.next_below(100000)),
                            "v" + std::to_string(i));
    }
    std::sort(src.recs.begin(), src.recs.end());
    all.insert(all.end(), src.recs.begin(), src.recs.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  storage::LoserTree<VecSource> tree(std::move(sources));
  const auto merged = drain(tree);
  ASSERT_EQ(merged.size(), all.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].first, all[i].first) << "at " << i;
  }
}

TEST(LoserTree, TiesBreakTowardSmallerSourceIndex) {
  std::vector<VecSource> sources(3);
  sources[0].recs = {{"k", "s0-a"}, {"k", "s0-b"}};
  sources[1].recs = {{"k", "s1-a"}};
  sources[2].recs = {{"a", "s2-a"}, {"k", "s2-a"}};
  storage::LoserTree<VecSource> tree(std::move(sources));
  const auto merged = drain(tree);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].second, "s2-a");  // key "a"
  EXPECT_EQ(merged[1].second, "s0-a");
  EXPECT_EQ(merged[2].second, "s0-b");
  EXPECT_EQ(merged[3].second, "s1-a");
  EXPECT_EQ(merged[4].second, "s2-a");
}

TEST(LoserTree, KeysSharingTheirPrefixMergeByFullKey) {
  // Every key shares its first 8 bytes with another, so the cached prefixes
  // tie and the full keys decide; "\x80" and "\xff" bytes order unsigned.
  const std::vector<std::string> keys = {
      "prefix00",  "prefix00a", "prefix00b",  "prefix00\xff",
      "prefix00\x80z", "prefix01", "prefix00ab", std::string("prefix00\0", 9)};
  Rng rng(7);
  std::vector<VecSource> sources(5);
  std::vector<std::pair<std::string, std::string>> all;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t i = 0; i < 40; ++i) {
      sources[s].recs.emplace_back(keys[rng.next_below(keys.size())],
                                   "s" + std::to_string(s));
    }
    std::stable_sort(sources[s].recs.begin(), sources[s].recs.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    all.insert(all.end(), sources[s].recs.begin(), sources[s].recs.end());
  }
  // Sources concatenated in index order, then a stable sort by key: the
  // reference order of a merge whose key ties go to the smaller index.
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  storage::LoserTree<VecSource> tree(std::move(sources));
  EXPECT_EQ(drain(tree), all);
}

TEST(LoserTree, ShorterKeyWinsAPrefixTieWithTrailingZero) {
  // "a" and "a\0" have the same 8-byte prefix; "a" is smaller even though
  // it sits in the larger source index.
  std::vector<VecSource> sources(2);
  sources[0].recs = {{std::string("a\0", 2), "s0"}};
  sources[1].recs = {{"a", "s1"}, {std::string("a\0", 2), "s1"}};
  storage::LoserTree<VecSource> tree(std::move(sources));
  const auto merged = drain(tree);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (std::pair<std::string, std::string>{"a", "s1"}));
  EXPECT_EQ(merged[1].first, std::string("a\0", 2));
  EXPECT_EQ(merged[1].second, "s0");
  EXPECT_EQ(merged[2].second, "s1");
}

TEST(LoserTree, EqualLongKeysAcrossSourcesComeOutBySourceIndex) {
  // Equal keys longer than the prefix tie on prefix and on the full key.
  const std::string key = "a-key-longer-than-eight-bytes";
  std::vector<VecSource> sources(4);
  sources[3].recs = {{key, "s3"}};
  sources[1].recs = {{key, "s1-a"}, {key, "s1-b"}};
  sources[2].recs = {{"a-key-", "s2"}, {key, "s2"}};
  sources[0].recs = {{key, "s0"}, {key + "!", "s0"}};
  storage::LoserTree<VecSource> tree(std::move(sources));
  const auto merged = drain(tree);
  std::vector<std::string> order;
  for (const auto& [k, v] : merged) order.push_back(v);
  EXPECT_EQ(order, (std::vector<std::string>{"s2", "s0", "s1-a", "s1-b", "s2",
                                             "s3", "s0"}));
  EXPECT_EQ(merged.back().first, key + "!");
}

TEST(LoserTree, HandlesSingleEmptyAndNoSources) {
  {
    std::vector<VecSource> one(1);
    one[0].recs = {{"a", "1"}, {"b", "2"}};
    storage::LoserTree<VecSource> tree(std::move(one));
    EXPECT_EQ(drain(tree).size(), 2u);
  }
  {
    std::vector<VecSource> mixed(4);  // all but one empty
    mixed[2].recs = {{"x", "1"}};
    storage::LoserTree<VecSource> tree(std::move(mixed));
    const auto merged = drain(tree);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].first, "x");
  }
  {
    storage::LoserTree<VecSource> tree({});
    std::string_view k, v;
    EXPECT_FALSE(tree.next(&k, &v));
  }
}

// --- staged-record sort kernel ---------------------------------------------

namespace {

using storage::Rec;

// Staged records over owned bytes: record i's value is its index, so every
// record is distinct and the data pointers identify it.
struct StagedRecs {
  std::vector<std::string> bytes;
  std::vector<Rec> recs;

  explicit StagedRecs(const std::vector<std::string>& keys) {
    bytes.reserve(keys.size());
    recs.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      bytes.push_back(keys[i] + std::to_string(i));
      Rec r;
      r.prefix = storage::key_prefix(keys[i]);
      r.key_len = static_cast<uint32_t>(keys[i].size());
      r.value_len = static_cast<uint32_t>(bytes.back().size() - keys[i].size());
      r.data = bytes.back().data();
      recs.push_back(r);
    }
  }
};

// sort_recs must leave exactly the order std::stable_sort gives, down to
// which value sits where among equal keys.
void expect_kernel_matches_stable_sort(const std::vector<std::string>& keys) {
  const StagedRecs staged(keys);
  std::vector<Rec> expected = staged.recs;
  std::stable_sort(expected.begin(), expected.end(),
                   storage::rec_less);
  std::vector<Rec> actual = staged.recs;
  storage::sort_recs(&actual);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].data, expected[i].data) << "position " << i;
    ASSERT_EQ(actual[i].key_len, expected[i].key_len) << "position " << i;
    ASSERT_EQ(actual[i].value_len, expected[i].value_len) << "position " << i;
    ASSERT_EQ(actual[i].prefix, expected[i].prefix) << "position " << i;
  }
}

// Keys over a tiny alphabet that includes '\0', so short keys collide on
// their zero-padded prefix ("a" vs "a\0") and equal keys repeat.
std::vector<std::string> tiny_alphabet_keys(size_t n, uint64_t seed,
                                            size_t max_len) {
  Rng rng(seed);
  const char alphabet[] = {'\0', 'a', 'b'};
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string key(rng.next_below(max_len + 1), '\0');
    for (char& c : key) c = alphabet[rng.next_below(3)];
    keys.push_back(std::move(key));
  }
  return keys;
}

}  // namespace

TEST(SortKernel, EmptyOneAndTwoRecords) {
  expect_kernel_matches_stable_sort({});
  expect_kernel_matches_stable_sort({"k"});
  expect_kernel_matches_stable_sort({"b", "a"});
  expect_kernel_matches_stable_sort({"a", "b"});
  expect_kernel_matches_stable_sort({"same", "same"});
  expect_kernel_matches_stable_sort({std::string("a\0", 2), "a"});
}

TEST(SortKernel, SeededRandomKeysSmallAndLarge) {
  for (const size_t n : {3, 17, 100, 1000, 50000}) {
    SCOPED_TRACE(n);
    expect_kernel_matches_stable_sort(random_records(n, 100 + n, 0, 24));
  }
}

TEST(SortKernel, ShortKeysWithZeroPaddingCollisions) {
  for (const size_t n : {40, 5000}) {
    SCOPED_TRACE(n);
    expect_kernel_matches_stable_sort(tiny_alphabet_keys(n, 7 + n, 7));
  }
  // Every length of the all-zero key shares one prefix.
  std::vector<std::string> zeros;
  for (size_t i = 0; i < 3000; ++i) zeros.emplace_back((i * 7) % 9, '\0');
  expect_kernel_matches_stable_sort(zeros);
}

TEST(SortKernel, DuplicateKeysKeepArrivalOrder) {
  const std::vector<std::string> distinct = {
      "", "x", "key", "exactly8", "longer-than-eight", "longer-than-eight!"};
  Rng rng(21);
  for (const size_t n : {50, 20000}) {
    SCOPED_TRACE(n);
    std::vector<std::string> keys;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(distinct[rng.next_below(distinct.size())]);
    }
    expect_kernel_matches_stable_sort(keys);
  }
}

TEST(SortKernel, LongKeysSharingPrefix) {
  // One, then three 8-byte prefixes with random suffixes of 0-20 bytes:
  // the prefix never decides these keys' order.
  for (const size_t prefixes : {1, 3}) {
    SCOPED_TRACE(prefixes);
    Rng rng(31 + prefixes);
    const auto suffixes = random_records(4000, 41 + prefixes, 0, 20);
    std::vector<std::string> keys;
    for (const std::string& suffix : suffixes) {
      keys.push_back("prefix-" + std::to_string(rng.next_below(prefixes)) +
                     suffix);
    }
    expect_kernel_matches_stable_sort(keys);
  }
}

TEST(SortKernel, ConstantBytesAreSkippedWithoutChangingOrder) {
  // Bytes 0 and 3 are the same in every key; the other prefix bytes take
  // four values each, so prefixes collide. Fixed 8-byte keys need no tie
  // pass, 12-byte ones do.
  for (const size_t len : {8, 12}) {
    SCOPED_TRACE(len);
    auto keys = random_records(3000, 51 + len, len, len);
    for (std::string& key : keys) {
      for (const size_t b : {1, 2, 4, 5, 6, 7}) {
        key[b] = static_cast<char>(key[b] & 0x3);
      }
      key[0] = 'C';
      key[3] = '\x7f';
    }
    expect_kernel_matches_stable_sort(keys);
  }
}

// --- batch codecs -----------------------------------------------------------

TEST(BatchCodec, FixedWidthRunsRoundTrip) {
  Rng rng(41);
  std::vector<uint64_t> u64s(257);
  for (auto& v : u64s) v = rng.next_u64();
  std::vector<double> f64s = {0.0, -1.5, 3.14159, 1e300, -0.0};

  ByteBuffer buf;
  serde::Writer w(buf);
  serde::put_u64_run(w, u64s);
  serde::put_f64_run(w, f64s);
  serde::put_u64_run(w, std::vector<uint64_t>{});  // empty run

  serde::Reader r(buf.view());
  std::vector<uint64_t> u_out;
  std::vector<double> f_out;
  std::vector<uint64_t> e_out;
  serde::get_u64_run(r, &u_out);
  serde::get_f64_run(r, &f_out);
  serde::get_u64_run(r, &e_out);
  EXPECT_EQ(u_out, u64s);
  EXPECT_EQ(f_out, f64s);
  EXPECT_TRUE(e_out.empty());
  EXPECT_TRUE(r.at_end());
}

TEST(BatchCodec, TruncatedRunsThrow) {
  ByteBuffer buf;
  serde::Writer w(buf);
  serde::put_u64_run(w, std::vector<uint64_t>{1, 2, 3, 4});
  const std::string bytes(buf.view());
  serde::Reader r(std::string_view(bytes).substr(0, bytes.size() - 5));
  std::vector<uint64_t> out;
  EXPECT_THROW(serde::get_u64_run(r, &out), serde::DecodeError);
}

TEST(BatchCodec, FramedRunDecodesInChunks) {
  const auto records = random_records(10, 43, 4, 32);
  ByteBuffer buf;
  serde::Writer w(buf);
  for (const auto& rec : records) serde::put_framed(w, rec);
  const std::string data(buf.view());

  size_t pos = 0;
  std::vector<std::string_view> out;
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 3u);
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 3u);
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 3u);
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 1u);  // stream end
  EXPECT_EQ(pos, data.size());
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) EXPECT_EQ(out[i], records[i]);

  size_t tpos = 0;
  std::vector<std::string_view> tout;
  EXPECT_THROW(
      serde::get_framed_run(data.substr(0, data.size() - 1), &tpos, 100, &tout),
      serde::DecodeError);
}

TEST(BatchCodec, RowBlockRoundTripAllColumnTypes) {
  query::Schema schema;
  schema.cols = {{"id", query::ColType::kI64},
                 {"score", query::ColType::kF64},
                 {"name", query::ColType::kStr}};
  std::vector<query::Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({query::Value::of(int64_t(i - 5)),
                    query::Value::of(i * 1.25),
                    query::Value::of("row-" + std::to_string(i))});
  }
  // String cells at both ends of the length prefix: an empty string, and a
  // 300-byte string whose prefix takes two varint bytes. The long one is the
  // block's last cell.
  rows.push_back({query::Value::of(int64_t(10)), query::Value::of(0.0),
                  query::Value::of(std::string())});
  rows.push_back({query::Value::of(int64_t(11)), query::Value::of(-1.5),
                  query::Value::of(std::string(300, 'x'))});
  const std::string block = schema.encode_row_block(rows);
  const std::vector<query::Row> decoded = schema.decode_row_block(block);
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(decoded[i], rows[i]);

  // Per-block layout still enforces schema shape.
  std::vector<query::Row> bad = {{query::Value::of(int64_t(1))}};
  EXPECT_THROW(schema.encode_row_block(bad), std::invalid_argument);
  EXPECT_THROW(schema.decode_row_block(block.substr(0, block.size() - 2)),
               serde::DecodeError);
  // The last string cell's length prefix (300) runs one byte past the
  // truncated buffer.
  EXPECT_THROW(schema.decode_row_block(block.substr(0, block.size() - 1)),
               serde::DecodeError);
}

TEST(BatchCodec, InPlaceRowBlockDecodeReusesRowsAcrossBlocks) {
  query::Schema schema;
  schema.cols = {{"name", query::ColType::kStr},
                 {"id", query::ColType::kI64},
                 {"tag", query::ColType::kStr},
                 {"score", query::ColType::kF64}};
  // Consecutive blocks grow, shrink and regrow both the row count and the
  // string lengths (across the small-string boundary), so the reused rows
  // and cells are resized in both directions.
  const std::vector<std::pair<int, size_t>> shapes = {
      {10, 40}, {3, 2}, {17, 0}, {1, 64}, {0, 0}, {12, 5}};
  std::vector<query::Row> reused;
  for (size_t b = 0; b < shapes.size(); ++b) {
    const auto [count, len] = shapes[b];
    std::vector<query::Row> rows;
    const char fill = static_cast<char>('a' + b);
    for (int i = 0; i < count; ++i) {
      rows.push_back({query::Value::of(std::string(len + i % 3, fill)),
                      query::Value::of(int64_t(i * 7 - 20)),
                      query::Value::of(std::to_string(b * 100 + i)),
                      query::Value::of(i * 0.5 - static_cast<double>(b))});
    }
    const std::string block = schema.encode_row_block(rows);
    schema.decode_row_block(block, &reused);
    ASSERT_EQ(reused.size(), rows.size()) << "block " << b;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(reused[i], rows[i]) << "block " << b << " row " << i;
    }
    EXPECT_EQ(schema.decode_row_block(block), rows) << "block " << b;
  }

  // A truncated block throws, and the rows decode cleanly again afterwards.
  std::vector<query::Row> last = {{query::Value::of(std::string("z")),
                                   query::Value::of(int64_t(1)),
                                   query::Value::of(std::string("t")),
                                   query::Value::of(2.5)}};
  const std::string block = schema.encode_row_block(last);
  EXPECT_THROW(schema.decode_row_block(block.substr(0, block.size() - 3),
                                       &reused),
               serde::DecodeError);
  schema.decode_row_block(block, &reused);
  EXPECT_EQ(reused, last);
}

// --- end-to-end distributed sort -------------------------------------------

namespace {

struct SortRun {
  std::vector<std::string> sorted;
  sort::SortStats stats;
};

// Deals `data` round-robin onto the first `input_nodes` nodes (all of them
// by default); the rest get no input file.
SortRun run_sort(apps::BenchEnv& env, const std::vector<std::string>& data,
                 uint64_t budget_bytes, sort::SortSpec spec = {},
                 uint32_t input_nodes = 0) {
  const uint32_t nodes = input_nodes == 0 ? env.nodes() : input_nodes;
  std::vector<std::vector<std::string>> shards(nodes);
  for (size_t i = 0; i < data.size(); ++i) shards[i % nodes].push_back(data[i]);
  std::vector<std::string> framed;
  for (const auto& s : shards) framed.push_back(sort::frame_records(s));

  spec.memory_budget_bytes = budget_bytes;
  sort::stage_sort_input(*env.cluster, spec, framed);
  SortRun run;
  run.stats = sort::run_distributed_sort(*env.engine, spec);
  run.sorted = sort::collect_sorted(*env.cluster, spec);
  return run;
}

}  // namespace

TEST(DistributedSort, ByteIdenticalToReferenceWithSpillsOverReliableShuffle) {
  // A zero-fault injector selects the seq/ack channel without losing
  // anything, so the shuffle below runs entirely over frames.
  fault::FaultInjector injector{fault::FaultPlan{}};
  engine::EngineConfig cfg = engine::EngineConfig::fast();
  cfg.fault_injector = &injector;
  apps::BenchEnv env =
      apps::BenchEnv::make(cluster::ClusterConfig::fast(4), cfg);

  const auto data = random_records(20000, 51, 16, 80);
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());

  // 64 KB budget forces several spill runs per node.
  const SortRun run = run_sort(env, data, 64 * 1024);
  EXPECT_EQ(run.sorted, expected);

  // New metrics: spills happened, the shuffle really ran over frames, and
  // the merge fan-in was recorded.
  EXPECT_GT(env.cluster->total_counter("sort.spill_runs"), 0u);
  EXPECT_GT(env.cluster->total_counter("engine.frames_sent"), 0u);
  uint64_t fan_in_observations = 0;
  for (uint32_t n = 0; n < env.nodes(); ++n) {
    fan_in_observations +=
        env.cluster->node(n).metrics().histogram("sort.merge_fan_in")->count();
  }
  EXPECT_GT(fan_in_observations, 0u);

  // A rerun on the same engine sorts byte-identically too.
  EXPECT_EQ(run_sort(env, data, 64 * 1024).sorted, expected);
}

TEST(DistributedSort, DeletesItsSpillRuns) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  const auto data = random_records(20000, 53, 16, 80);
  sort::SortSpec spec;
  spec.output_prefix = "sort/cleanup";
  const SortRun run = run_sort(env, data, 64 * 1024, spec);
  ASSERT_EQ(run.sorted.size(), data.size());
  ASSERT_GT(run.stats.job.metrics.counter("sort.spill_runs"), 0u);
  for (uint32_t n = 0; n < env.nodes(); ++n) {
    const storage::FileStore& store = env.cluster->node(n).store();
    EXPECT_TRUE(store.list("engine/spill/").empty()) << "node " << n;
    EXPECT_TRUE(store.list(spec.output_prefix + "/spill/").empty()) << "node " << n;
  }
}

TEST(DistributedSort, DuplicateHeavyInputStaysByteIdentical) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  // Three distinct records, heavily repeated: range boundaries collapse and
  // whole partitions hold one key, but the output must still be exact.
  std::vector<std::string> data;
  for (int i = 0; i < 6000; ++i) {
    data.push_back(i % 3 == 0 ? "apple" : i % 3 == 1 ? "banana" : "cherry");
  }
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());
  const SortRun run = run_sort(env, data, 16 * 1024);
  EXPECT_EQ(run.sorted, expected);
}

TEST(DistributedSort, EmptyInputCompletes) {
  apps::BenchEnv env = apps::BenchEnv::fast(2);
  const SortRun run = run_sort(env, {}, 1 << 20);
  EXPECT_TRUE(run.sorted.empty());
}

TEST(DistributedSort, SingleNodeMatchesReference) {
  apps::BenchEnv env = apps::BenchEnv::fast(1);
  const auto data = random_records(3000, 61, 8, 40);
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());
  const SortRun run = run_sort(env, data, 32 * 1024);
  EXPECT_EQ(run.sorted, expected);
}

TEST(DistributedSort, EightNodesMatchReference) {
  apps::BenchEnv env = apps::BenchEnv::fast(8);
  const auto data = random_records(20000, 71, 8, 40);
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());
  const SortRun run = run_sort(env, data, 32 * 1024);
  EXPECT_EQ(run.sorted, expected);
  EXPECT_EQ(run.stats.partitioner.partitions(), 8u);
}

// --- node-parallel sampling pass -------------------------------------------

TEST(SamplePartitioner, RepeatedCallsReturnIdenticalBoundaries) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  sort::SortSpec spec;
  spec.sample_capacity = 256;  // far below the input: reservoirs replace
  const auto data = random_records(20000, 81, 8, 32);
  std::vector<std::string> framed(4);
  for (uint32_t n = 0; n < 4; ++n) {
    std::vector<std::string> shard;
    for (size_t i = n; i < data.size(); i += 4) shard.push_back(data[i]);
    framed[n] = sort::frame_records(shard);
  }
  sort::stage_sort_input(*env.cluster, spec, framed);
  const std::vector<std::string> first =
      sort::sample_partitioner(*env.cluster, spec, 4).boundaries();
  ASSERT_EQ(first.size(), 3u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sort::sample_partitioner(*env.cluster, spec, 4).boundaries(), first)
        << "call " << i;
  }
}

TEST(SamplePartitioner, NodeWithoutInputContributesNoSamples) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  // 900 records on nodes 0-2, none on node 3. Each node's reservoir
  // (4096 / 4 = 1024 slots) holds its whole input, so the sample is exactly
  // the staged records.
  const auto data = random_records(900, 91, 8, 32);
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());
  const SortRun run = run_sort(env, data, 8 * 1024, {}, /*input_nodes=*/3);
  EXPECT_FALSE(env.cluster->node(3).store().exists(sort::SortSpec().input_path));
  EXPECT_EQ(run.stats.partitioner.boundaries(),
            sort::RangePartitioner::from_samples(data, 4).boundaries());
  EXPECT_EQ(run.sorted, expected);
}

TEST(SamplePartitioner, CapacityBelowNodeCountStillSorts) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  sort::SortSpec spec;
  spec.sample_capacity = 3;  // one sample per node
  const auto data = random_records(4000, 101, 8, 32);
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());
  const SortRun run = run_sort(env, data, 16 * 1024, spec);
  EXPECT_GE(run.stats.partitioner.partitions(), 2u);
  EXPECT_LE(run.stats.partitioner.partitions(), 4u);
  EXPECT_EQ(run.sorted, expected);
}

TEST(SamplePartitioner, MalformedInputThrowsToCaller) {
  apps::BenchEnv env = apps::BenchEnv::fast(2);
  sort::SortSpec spec;
  sort::stage_sort_input(*env.cluster, spec,
                         {sort::frame_records({"alpha", "beta"}),
                          std::string("\x32" "abc")});  // frame of 50, 3 bytes
  // The sampler thread's decode error reaches the caller, not terminate().
  EXPECT_THROW(sort::sample_partitioner(*env.cluster, spec, 2),
               serde::DecodeError);
}

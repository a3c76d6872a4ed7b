// Microbenchmarks for the serialization substrate (varint, record, bin and
// row-block encode/decode throughput) and the engine's hot memory layouts:
// map-vs-flat combine folding and pair-vector-vs-arena reduce staging
// (google-benchmark).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "engine/bin.h"
#include "engine/flat_table.h"
#include "query/row.h"
#include "serde/batch.h"
#include "serde/serde.h"
#include "storage/staged_runs.h"

using namespace hamr;

static void BM_VarintEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values(4096);
  for (auto& v : values) v = rng.next_u64() >> (rng.next_below(60));
  ByteBuffer buf(64 * 1024);
  for (auto _ : state) {
    buf.clear();
    serde::Writer w(buf);
    for (uint64_t v : values) w.put_varint(v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncode);

static void BM_VarintDecode(benchmark::State& state) {
  Rng rng(1);
  ByteBuffer buf(64 * 1024);
  serde::Writer w(buf);
  constexpr int kCount = 4096;
  for (int i = 0; i < kCount; ++i) w.put_varint(rng.next_u64() >> rng.next_below(60));
  for (auto _ : state) {
    serde::Reader r(buf.view());
    uint64_t sum = 0;
    for (int i = 0; i < kCount; ++i) sum += r.get_varint();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kCount);
}
BENCHMARK(BM_VarintDecode);

static void BM_RecordEncode(benchmark::State& state) {
  const std::string key = "some_reasonable_key";
  const std::string value(static_cast<size_t>(state.range(0)), 'v');
  ByteBuffer buf(1 << 20);
  for (auto _ : state) {
    buf.clear();
    serde::Writer w(buf);
    for (int i = 0; i < 1024; ++i) {
      w.put_bytes(key);
      w.put_bytes(value);
    }
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * 1024 * (key.size() + value.size()));
}
BENCHMARK(BM_RecordEncode)->Arg(16)->Arg(256)->Arg(4096);

static void BM_BinBuildAndScan(benchmark::State& state) {
  const std::string value(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    engine::BinBuilder builder(1, 0);
    for (int i = 0; i < 512; ++i) builder.add("key", value);
    const std::string bin = builder.take();
    engine::BinView view(bin);
    engine::KvPair record;
    size_t total = 0;
    while (view.next(&record)) total += record.value.size();
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(state.iterations() * 512 * (3 + value.size()));
}
BENCHMARK(BM_BinBuildAndScan)->Arg(16)->Arg(256);

// --- combine accumulator layouts ---------------------------------------------
//
// The fold loop of sender-side combining / partial reduce: a stream of
// records with a skewed key distribution accumulates into key -> acc. The
// unordered_map variant is the engine's former layout (std::string key
// materialized per probe); the FlatAccTable variant probes with the record's
// string_view directly.

namespace {

std::vector<std::string> fold_keys(size_t records, size_t distinct) {
  Rng rng(7);
  std::vector<std::string> keys;
  keys.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    keys.push_back("word-" + std::to_string(rng.next_below(distinct)));
  }
  return keys;
}

constexpr size_t kFoldRecords = 8192;

}  // namespace

static void BM_CombineFoldUnorderedMap(benchmark::State& state) {
  const auto keys = fold_keys(kFoldRecords, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unordered_map<std::string, std::string> acc;
    for (const std::string& k : keys) {
      // The former hot path: probing allocates a std::string key.
      std::string& v = acc[std::string(std::string_view(k))];
      if (v.empty()) v = "0";
      v.back() = static_cast<char>('0' + ((v.back() - '0' + 1) % 10));
    }
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(state.iterations() * kFoldRecords);
}
BENCHMARK(BM_CombineFoldUnorderedMap)->Arg(64)->Arg(4096);

static void BM_CombineFoldFlatTable(benchmark::State& state) {
  const auto keys = fold_keys(kFoldRecords, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    engine::FlatAccTable acc;
    for (const std::string& k : keys) {
      std::string& v = acc.find_or_insert(k);
      if (v.empty()) v = "0";
      v.back() = static_cast<char>('0' + ((v.back() - '0' + 1) % 10));
    }
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(state.iterations() * kFoldRecords);
}
BENCHMARK(BM_CombineFoldFlatTable)->Arg(64)->Arg(4096);

// --- reduce staging layouts --------------------------------------------------
//
// Stage N records then sort them by key, as the reduce path does before the
// merge: two heap strings per record + pair sort (former layout) vs one
// arena bump per record + the engine's staged-record sort (sort_recs).

namespace {

constexpr size_t kStageRecords = 8192;

std::vector<std::pair<std::string, std::string>> stage_input() {
  Rng rng(13);
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(kStageRecords);
  for (size_t i = 0; i < kStageRecords; ++i) {
    records.emplace_back("key-" + std::to_string(rng.next_below(2048)),
                         std::string(24, 'v'));
  }
  return records;
}

}  // namespace

static void BM_StagePairVectorAndSort(benchmark::State& state) {
  const auto input = stage_input();
  for (auto _ : state) {
    std::vector<std::pair<std::string, std::string>> staged;
    for (const auto& [k, v] : input) staged.emplace_back(k, v);
    std::stable_sort(staged.begin(), staged.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    benchmark::DoNotOptimize(staged.size());
  }
  state.SetItemsProcessed(state.iterations() * kStageRecords);
}
BENCHMARK(BM_StagePairVectorAndSort);

static void BM_StageArenaAndSort(benchmark::State& state) {
  const auto input = stage_input();
  for (auto _ : state) {
    storage::StagedRuns staged;
    for (const auto& [k, v] : input) staged.stage(k, v);
    auto merge = staged.merge();  // sorts the staged records
    benchmark::DoNotOptimize(merge.fan_in());
  }
  state.SetItemsProcessed(state.iterations() * kStageRecords);
}
BENCHMARK(BM_StageArenaAndSort);

// --- scalar vs batch codecs --------------------------------------------------
//
// Head-to-heads for the batch (vectorized) entry points in serde/batch.h:
// fixed-width runs (one memcpy per run vs one put_fixed64/get_fixed64 per
// value). The row codec (query/row.cpp) rides the batch side for numeric
// columns; its string columns are the scalar length-prefixed cells timed by
// BM_StringRun*Scalar.

namespace {

constexpr size_t kRunValues = 4096;

std::vector<uint64_t> run_u64s() {
  Rng rng(21);
  std::vector<uint64_t> values(kRunValues);
  for (auto& v : values) v = rng.next_u64();
  return values;
}

std::vector<std::string> run_strings() {
  Rng rng(22);
  std::vector<std::string> values;
  values.reserve(kRunValues);
  for (size_t i = 0; i < kRunValues; ++i) {
    values.push_back(std::string(8 + rng.next_below(24), '0' + i % 10));
  }
  return values;
}

}  // namespace

static void BM_FixedRunEncodeScalar(benchmark::State& state) {
  const auto values = run_u64s();
  ByteBuffer buf(64 * 1024);
  for (auto _ : state) {
    buf.clear();
    serde::Writer w(buf);
    w.put_varint(values.size());
    for (uint64_t v : values) w.put_fixed64(v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * kRunValues * 8);
}
BENCHMARK(BM_FixedRunEncodeScalar);

static void BM_FixedRunEncodeBatch(benchmark::State& state) {
  const auto values = run_u64s();
  ByteBuffer buf(64 * 1024);
  for (auto _ : state) {
    buf.clear();
    serde::Writer w(buf);
    serde::put_u64_run(w, values);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * kRunValues * 8);
}
BENCHMARK(BM_FixedRunEncodeBatch);

static void BM_FixedRunDecodeScalar(benchmark::State& state) {
  const auto values = run_u64s();
  ByteBuffer buf(64 * 1024);
  serde::Writer w(buf);
  w.put_varint(values.size());
  for (uint64_t v : values) w.put_fixed64(v);
  for (auto _ : state) {
    serde::Reader r(buf.view());
    const uint64_t count = r.get_varint();
    uint64_t sum = 0;
    for (uint64_t i = 0; i < count; ++i) sum += r.get_fixed64();
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * kRunValues * 8);
}
BENCHMARK(BM_FixedRunDecodeScalar);

static void BM_FixedRunDecodeBatch(benchmark::State& state) {
  const auto values = run_u64s();
  ByteBuffer buf(64 * 1024);
  serde::Writer w(buf);
  serde::put_u64_run(w, values);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    out.clear();
    serde::Reader r(buf.view());
    serde::get_u64_run(r, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kRunValues * 8);
}
BENCHMARK(BM_FixedRunDecodeBatch);

static void BM_StringRunEncodeScalar(benchmark::State& state) {
  const auto values = run_strings();
  uint64_t bytes = 0;
  for (const auto& s : values) bytes += s.size();
  ByteBuffer buf(256 * 1024);
  for (auto _ : state) {
    buf.clear();
    serde::Writer w(buf);
    w.put_varint(values.size());
    for (const auto& s : values) w.put_bytes(s);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_StringRunEncodeScalar);

static void BM_StringRunDecodeScalar(benchmark::State& state) {
  const auto values = run_strings();
  uint64_t bytes = 0;
  for (const auto& s : values) bytes += s.size();
  ByteBuffer buf(256 * 1024);
  serde::Writer w(buf);
  w.put_varint(values.size());
  for (const auto& s : values) w.put_bytes(s);
  for (auto _ : state) {
    serde::Reader r(buf.view());
    const uint64_t count = r.get_varint();
    size_t total = 0;
    for (uint64_t i = 0; i < count; ++i) total += r.get_bytes().size();
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_StringRunDecodeScalar);

// --- row blocks --------------------------------------------------------------
//
// Schema::decode_row_block as the query scans call it: the in-place form
// overwrites a reused row vector (cells keep their string capacity), the
// returning form builds fresh rows per block. Same 256-row blocks as a
// staged table shard.

static query::Schema row_block_schema() {
  query::Schema schema;
  schema.cols = {{"item", query::ColType::kI64},
                 {"customer", query::ColType::kI64},
                 {"category", query::ColType::kStr},
                 {"price", query::ColType::kF64},
                 {"comment", query::ColType::kStr}};
  return schema;
}

static std::string row_block_bytes(const query::Schema& schema) {
  Rng rng(11);
  std::vector<query::Row> rows;
  for (int i = 0; i < 256; ++i) {
    const auto item = static_cast<int64_t>(rng.next_below(2000));
    const auto customer = static_cast<int64_t>(rng.next_below(25000));
    const double price = static_cast<double>(rng.next_below(3200)) / 16;
    std::string category(4 + rng.next_below(8), 'c');
    std::string comment(8 + rng.next_below(40), 'x');
    rows.push_back({query::Value::of(item), query::Value::of(customer),
                    query::Value::of(std::move(category)),
                    query::Value::of(price),
                    query::Value::of(std::move(comment))});
  }
  return schema.encode_row_block(rows);
}

static void BM_RowBlockDecodeReturning(benchmark::State& state) {
  const query::Schema schema = row_block_schema();
  const std::string block = row_block_bytes(schema);
  for (auto _ : state) {
    std::vector<query::Row> rows = schema.decode_row_block(block);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetBytesProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_RowBlockDecodeReturning);

static void BM_RowBlockDecodeInPlace(benchmark::State& state) {
  const query::Schema schema = row_block_schema();
  const std::string block = row_block_bytes(schema);
  std::vector<query::Row> rows;
  for (auto _ : state) {
    schema.decode_row_block(block, &rows);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetBytesProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_RowBlockDecodeInPlace);

BENCHMARK_MAIN();

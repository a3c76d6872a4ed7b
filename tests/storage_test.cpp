#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/random.h"
#include "fault/fault.h"
#include "storage/device.h"
#include "storage/file_store.h"
#include "storage/run_file.h"

using namespace hamr;
using namespace hamr::storage;

// --- ThrottledDevice ---------------------------------------------------------

TEST(ThrottledDevice, DisabledIsFree) {
  DeviceConfig config;
  config.enabled = false;
  ThrottledDevice dev(config);
  Stopwatch w;
  for (int i = 0; i < 100; ++i) dev.charge(1 << 20);
  // Generous bound: a disabled device must not sleep at all, but the test
  // process itself may be preempted on a loaded CI machine.
  EXPECT_LT(w.elapsed_seconds(), 0.5);
}

TEST(ThrottledDevice, ChargesBandwidth) {
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 10e6;  // 10 MB/s
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config);
  Stopwatch w;
  dev.charge(1 << 20);  // 1 MiB at 10 MB/s ~= 105 ms
  const double elapsed = w.elapsed_seconds();
  EXPECT_GE(elapsed, 0.09);
  // Upper bound guards against double-charging, not scheduling noise: a
  // bug would double it to ~210 ms, while preemption rarely adds seconds.
  EXPECT_LT(elapsed, 2.0);
}

TEST(ThrottledDevice, ChargesSeekPerOp) {
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 1e12;  // bandwidth negligible
  config.seek_latency = millis(10);
  ThrottledDevice dev(config);
  Stopwatch w;
  for (int i = 0; i < 5; ++i) dev.charge_seek();
  EXPECT_GE(w.elapsed_seconds(), 0.045);
}

TEST(ThrottledDevice, SerializesConcurrentRequests) {
  // Two concurrent 0.5 MB requests on a 10 MB/s disk must take ~100 ms total
  // (one spindle), not ~50 ms (parallel).
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 10e6;
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config);
  Stopwatch w;
  std::thread t1([&] { dev.charge(512 * 1024); });
  std::thread t2([&] { dev.charge(512 * 1024); });
  t1.join();
  t2.join();
  EXPECT_GE(w.elapsed_seconds(), 0.09);
}

TEST(ThrottledDevice, CountsBytesInMetrics) {
  Metrics metrics;
  DeviceConfig config;
  config.enabled = true;
  config.bandwidth_bytes_per_sec = 1e12;
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config, &metrics);
  dev.charge(1000);
  dev.charge(2000);
  EXPECT_EQ(metrics.value("disk.bytes"), 3000u);
  EXPECT_EQ(metrics.value("disk.ops"), 2u);
}

// --- FileStore ----------------------------------------------------------------

TEST(FileStore, WriteReadRoundTrip) {
  FileStore store;
  store.write_file("a/b", "hello");
  EXPECT_EQ(*store.read_file("a/b").value(), "hello");
  EXPECT_TRUE(store.exists("a/b"));
  EXPECT_FALSE(store.exists("a/c"));
  EXPECT_EQ(store.file_size("a/b").value(), 5u);
}

TEST(FileStore, OverwriteTruncates) {
  FileStore store;
  store.write_file("f", "long content");
  store.write_file("f", "x");
  EXPECT_EQ(*store.read_file("f").value(), "x");
}

TEST(FileStore, AppendCreatesAndExtends) {
  FileStore store;
  store.append("log", "a");
  store.append("log", "bc");
  EXPECT_EQ(*store.read_file("log").value(), "abc");
}

TEST(FileStore, ReadRangeClamps) {
  FileStore store;
  store.write_file("f", "0123456789");
  EXPECT_EQ(store.read_range("f", 2, 3).value(), "234");
  EXPECT_EQ(store.read_range("f", 8, 100).value(), "89");
  EXPECT_EQ(store.read_range("f", 100, 5).value(), "");
}

TEST(FileStore, MissingFileIsNotFound) {
  FileStore store;
  EXPECT_EQ(store.read_file("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.file_size("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.remove("nope").code(), StatusCode::kNotFound);
}

TEST(FileStore, ListByPrefixSorted) {
  FileStore store;
  store.write_file("x/2", "");
  store.write_file("x/1", "");
  store.write_file("y/1", "");
  const auto listed = store.list("x/");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "x/1");
  EXPECT_EQ(listed[1], "x/2");
  EXPECT_EQ(store.list("").size(), 3u);
}

TEST(FileStore, RemoveAndTotalBytes) {
  FileStore store;
  store.write_file("a", "1234");
  store.write_file("b", "56");
  EXPECT_EQ(store.total_bytes(), 6u);
  EXPECT_TRUE(store.remove("a").ok());
  EXPECT_EQ(store.total_bytes(), 2u);
}

TEST(FileStore, ReadsShareOneBufferAndWritesMoveIn) {
  FileStore store;
  std::string bytes(1 << 16, 'x');
  const char* written = bytes.data();
  store.write_file("f", std::move(bytes));
  const FileBuffer a = store.read_file("f").value();
  const FileBuffer b = store.read_file("f").value();
  EXPECT_EQ(a.get(), b.get());       // no copy per read
  EXPECT_EQ(a->data(), written);     // no copy on the write either
}

TEST(FileStore, HandedOutBufferNeverChanges) {
  FileStore store;
  store.write_file("f", "original");
  const FileBuffer before = store.read_file("f").value();
  store.write_file("f", "replaced");
  EXPECT_EQ(*before, "original");
  const FileBuffer replaced = store.read_file("f").value();
  store.append("f", "+tail");
  EXPECT_EQ(*before, "original");
  EXPECT_EQ(*replaced, "replaced");
  EXPECT_EQ(*store.read_file("f").value(), "replaced+tail");
  const FileBuffer appended = store.read_file("f").value();
  ASSERT_TRUE(store.remove("f").ok());
  EXPECT_EQ(*appended, "replaced+tail");
  EXPECT_FALSE(store.exists("f"));
}

TEST(FileStore, FailedCheckedWriteKeepsCallerBytes) {
  fault::FaultPlan plan;
  plan.disk_write_error_rate = 1.0;
  fault::FaultInjector injector(plan);
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 1e12;
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config);
  dev.set_fault_injector(&injector, 0);
  FileStore store(&dev);

  std::string bytes = "payload";
  EXPECT_FALSE(store.write_file_checked("f", std::move(bytes)).ok());
  EXPECT_EQ(bytes, "payload");  // NOLINT(bugprone-use-after-move): kept on error
  EXPECT_FALSE(store.exists("f"));

  // A run writer's buffer survives the failed finish() for the retry.
  RunWriter writer(&store, "run");
  writer.add("k", "v");
  EXPECT_FALSE(writer.finish().ok());
  dev.set_fault_injector(nullptr, 0);
  ASSERT_TRUE(store.write_file_checked("f", std::move(bytes)).ok());
  EXPECT_EQ(*store.read_file("f").value(), "payload");
  ASSERT_TRUE(writer.finish().ok());
  RunReader reader(&store, "run");
  std::string_view k, v;
  ASSERT_TRUE(reader.next(&k, &v));
  EXPECT_EQ(k, "k");
  EXPECT_EQ(v, "v");
  EXPECT_FALSE(reader.next(&k, &v));
}

// Readers race one writer that replaces and appends the file. Every version
// the writer installs is one repeated character, so a reader that ever saw a
// buffer change under it would see mixed characters or a torn size.
TEST(FileStore, ConcurrentReadersWhileWriterReplacesAndAppends) {
  constexpr size_t kChunk = 4096;
  constexpr int kReaders = 3;
  constexpr int kReadsEach = 500;
  FileStore store;
  store.write_file("f", std::string(kChunk, 'a'));
  std::atomic<int> finished{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsEach; ++i) {
        const FileBuffer buf = store.read_file("f").value();
        const std::string& data = *buf;
        std::this_thread::yield();  // let the writer move on while we hold it
        EXPECT_FALSE(data.empty());
        EXPECT_EQ(data.size() % kChunk, 0u);
        EXPECT_EQ(std::count(data.begin(), data.end(), data[0]),
                  static_cast<std::ptrdiff_t>(data.size()));
      }
      finished.fetch_add(1);
    });
  }
  // The writer keeps installing versions until every reader is through.
  for (int i = 0; finished.load() < kReaders; ++i) {
    const char c = static_cast<char>('a' + i % 26);
    store.write_file("f", std::string(kChunk, c));
    store.append("f", std::string(kChunk, c));
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(store.read_file("f").value()->size(), 2 * kChunk);
}

// --- run files -------------------------------------------------------------------

TEST(RunFile, WriteReadRoundTrip) {
  FileStore store;
  {
    RunWriter w(&store, "run");
    w.add("a", "1");
    w.add("b", "2");
    w.add("b", "3");
    EXPECT_EQ(w.records(), 3u);
    w.close();
  }
  RunReader r(&store, "run");
  std::string_view k, v;
  ASSERT_TRUE(r.next(&k, &v));
  EXPECT_EQ(k, "a");
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(r.next(&k, &v));
  EXPECT_EQ(k, "b");
  EXPECT_EQ(v, "2");
  ASSERT_TRUE(r.next(&k, &v));
  EXPECT_EQ(v, "3");
  EXPECT_FALSE(r.next(&k, &v));
}

TEST(RunFile, EmptyRun) {
  FileStore store;
  RunWriter w(&store, "empty");
  w.close();
  RunReader r(&store, "empty");
  std::string_view k, v;
  EXPECT_FALSE(r.next(&k, &v));
}

TEST(RunFile, MergePreservesSortAndStability) {
  FileStore store;
  {
    RunWriter w(&store, "r0");
    w.add("a", "r0-a");
    w.add("c", "r0-c");
    w.close();
  }
  {
    RunWriter w(&store, "r1");
    w.add("a", "r1-a");
    w.add("b", "r1-b");
    w.close();
  }
  EXPECT_EQ(merge_runs(&store, {"r0", "r1"}, "merged"), 4u);
  RunReader r(&store, "merged");
  std::vector<std::pair<std::string, std::string>> out;
  std::string_view k, v;
  while (r.next(&k, &v)) out.emplace_back(k, v);
  ASSERT_EQ(out.size(), 4u);
  // Sorted by key; equal keys keep run order (r0 before r1).
  EXPECT_EQ(out[0], (std::pair<std::string, std::string>{"a", "r0-a"}));
  EXPECT_EQ(out[1], (std::pair<std::string, std::string>{"a", "r1-a"}));
  EXPECT_EQ(out[2].first, "b");
  EXPECT_EQ(out[3].first, "c");
}

// Property: merging K random sorted runs equals sorting the concatenation.
TEST(RunFile, MergeEqualsSortedConcat) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    FileStore store;
    std::vector<std::pair<std::string, std::string>> all;
    std::vector<std::string> paths;
    const uint64_t runs = 1 + rng.next_below(6);
    for (uint64_t i = 0; i < runs; ++i) {
      std::vector<std::pair<std::string, std::string>> records;
      const uint64_t n = rng.next_below(100);
      for (uint64_t j = 0; j < n; ++j) {
        records.emplace_back("k" + std::to_string(rng.next_below(30)),
                             "v" + std::to_string(j));
      }
      std::stable_sort(records.begin(), records.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      const std::string path = "run" + std::to_string(i);
      RunWriter w(&store, path);
      for (const auto& [k, v] : records) w.add(k, v);
      w.close();
      paths.push_back(path);
      all.insert(all.end(), records.begin(), records.end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    merge_runs(&store, paths, "merged");
    RunReader r(&store, "merged");
    std::string_view k, v;
    size_t idx = 0;
    while (r.next(&k, &v)) {
      ASSERT_LT(idx, all.size());
      EXPECT_EQ(k, all[idx].first);
      ++idx;
    }
    EXPECT_EQ(idx, all.size());
  }
}

TEST(FileStore, ChargedReadsHitDevice) {
  Metrics metrics;
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 1e12;
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config, &metrics);
  FileStore store(&dev);
  store.write_file("f", std::string(1000, 'x'));
  (void)store.read_file("f");
  EXPECT_EQ(metrics.value("disk.bytes"), 2000u);  // write + read
}

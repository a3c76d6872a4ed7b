// Unit tests for the hot-path memory/scheduling primitives added by the
// perf rework: Arena, FlatAccTable, and the engine Scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "engine/flat_table.h"
#include "engine/scheduler.h"
#include "storage/staged_runs.h"

namespace hamr {
namespace {

// --- Arena ------------------------------------------------------------------

TEST(Arena, StoreReturnsStableViewsAcrossGrowth) {
  Arena arena(nullptr, /*chunk_bytes=*/128);
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 200; ++i) {
    originals.push_back("key-" + std::to_string(i) + std::string(i % 40, 'x'));
  }
  for (const std::string& s : originals) views.push_back(arena.store(s));
  // Many chunks later, every early view still reads back exactly.
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
  EXPECT_GT(arena.reserved_bytes(), 0u);
  EXPECT_GE(arena.reserved_bytes(), arena.used_bytes());
}

TEST(Arena, OversizedAllocationGetsDedicatedChunk) {
  Arena arena(nullptr, /*chunk_bytes=*/64);
  std::string big(1000, 'b');
  const std::string_view v = arena.store(big);
  EXPECT_EQ(v, big);
  EXPECT_GE(arena.reserved_bytes(), 1000u);
}

TEST(Arena, GaugeTracksReservedBytesThroughClearAndMove) {
  Gauge g;
  {
    Arena arena(&g, /*chunk_bytes=*/256);
    EXPECT_EQ(g.get(), 0);
    arena.store(std::string(100, 'a'));
    EXPECT_EQ(g.get(), static_cast<int64_t>(arena.reserved_bytes()));

    // Move: the charge travels with the chunks, no double count.
    Arena moved = std::move(arena);
    EXPECT_EQ(g.get(), static_cast<int64_t>(moved.reserved_bytes()));

    moved.clear();
    EXPECT_EQ(g.get(), 0);
    EXPECT_EQ(moved.used_bytes(), 0u);

    // A cleared arena is reusable and re-charges the gauge.
    moved.store("hello");
    EXPECT_GT(g.get(), 0);
  }
  // Destruction un-charges.
  EXPECT_EQ(g.get(), 0);
}

// --- FlatAccTable -----------------------------------------------------------

TEST(FlatAccTable, HeterogeneousLookupFindsSameSlot) {
  engine::FlatAccTable table;
  // Probe with a string_view into a larger buffer: no std::string key is ever
  // materialized by the caller.
  const std::string buffer = "xxapplexx";
  const std::string_view key = std::string_view(buffer).substr(2, 5);
  table.find_or_insert(key) = "1";
  EXPECT_EQ(table.size(), 1u);
  // A different view with the same bytes hits the same accumulator.
  const std::string other = "apple";
  std::string& acc = table.find_or_insert(other);
  EXPECT_EQ(acc, "1");
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatAccTable, GrowthKeepsAllEntriesAndInsertionOrder) {
  engine::FlatAccTable table;
  // Far past the initial 64 slots, forcing several rebuilds.
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    table.find_or_insert("key-" + std::to_string(i)) = std::to_string(i);
  }
  ASSERT_EQ(table.size(), static_cast<size_t>(n));
  // Every key still resolves to its accumulator.
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(table.find_or_insert("key-" + std::to_string(i)),
              std::to_string(i));
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(n));
  // Entries iterate in insertion order (flush paths depend on determinism).
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(table.entries()[i].key, "key-" + std::to_string(i));
    EXPECT_EQ(table.entries()[i].acc, std::to_string(i));
  }
}

TEST(FlatAccTable, MoveDrainAndRearmKeepsByteAccountingExact) {
  Gauge g;
  engine::FlatAccTable table(&g);
  for (int i = 0; i < 1000; ++i) {
    table.find_or_insert("some-reasonably-long-key-" + std::to_string(i)) = "v";
  }
  const int64_t charged = g.get();
  EXPECT_GT(charged, 0);
  EXPECT_EQ(charged, static_cast<int64_t>(table.arena_bytes()));

  // Overflow-flush pattern: move the table out, re-arm an empty one.
  engine::FlatAccTable drained = std::move(table);
  table = engine::FlatAccTable(&g);
  EXPECT_EQ(g.get(), charged);  // the charge moved, nothing double-counted
  EXPECT_EQ(drained.size(), 1000u);
  EXPECT_EQ(table.size(), 0u);

  // Re-armed table is fully usable.
  table.find_or_insert("fresh") = "f";
  EXPECT_EQ(table.size(), 1u);

  drained.clear();
  EXPECT_EQ(static_cast<int64_t>(table.arena_bytes()), g.get());
}

TEST(FlatAccTable, EmptyKeyAndBinaryKeysWork) {
  engine::FlatAccTable table;
  table.find_or_insert("") = "empty";
  const std::string binary("\x00\x01\xff\x00", 4);
  table.find_or_insert(binary) = "bin";
  EXPECT_EQ(table.find_or_insert(""), "empty");
  EXPECT_EQ(table.find_or_insert(binary), "bin");
  EXPECT_EQ(table.size(), 2u);
}

// --- key prefix / reduce record ordering ------------------------------------

TEST(KeyPrefix, OrdersLikeLexicographicCompare) {
  const std::vector<std::string> keys = {
      "", "a", "ab", "abcdefgh", "abcdefghZ", "abcdefghz", "b", "zzzzzzzzz",
      std::string("\x00", 1), std::string("\xff\x01", 2)};
  for (const std::string& x : keys) {
    for (const std::string& y : keys) {
      const uint64_t px = storage::key_prefix(x);
      const uint64_t py = storage::key_prefix(y);
      if (px < py) {
        EXPECT_LT(x, y) << "prefix order disagrees for '" << x << "' vs '" << y;
      } else if (px > py) {
        EXPECT_GT(x, y) << "prefix order disagrees for '" << x << "' vs '" << y;
      }
      // Equal prefixes: rec_less falls back to full key compare,
      // nothing to check here.
    }
  }
}

// --- Scheduler ---------------------------------------------------------------

TEST(Scheduler, FifoPerSenderStrictWithSingleConsumer) {
  // With one consumer there is no dequeue/record race to blur observation:
  // every sender's items must come back in exact arrival order even though
  // several producer threads interleave their pushes.
  for (int run = 0; run < 10; ++run) {
    const uint32_t kSenders = 5;
    const uint32_t kPerSender = 200;
    engine::Scheduler sched(/*workers=*/1, /*byte_budget=*/1ull << 30);

    std::map<uint32_t, std::vector<uint32_t>> dequeued;  // src -> seq order
    std::thread worker([&] {
      engine::Scheduler::Work work;
      while (sched.next(&work)) {
        if (!work.is_item) continue;
        dequeued[work.item.src].push_back(
            static_cast<uint32_t>(std::stoul(std::string(work.item.payload.view()))));
      }
    });

    std::vector<std::thread> senders;
    for (uint32_t s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (uint32_t i = 0; i < kPerSender; ++i) {
          engine::QueueItem item;
          item.src = s;
          item.payload = std::to_string(i);
          ASSERT_TRUE(sched.push_bin(std::move(item)));
        }
      });
    }
    for (auto& t : senders) t.join();

    while (sched.queued_items() != 0) std::this_thread::yield();
    sched.stop();
    worker.join();

    for (uint32_t s = 0; s < kSenders; ++s) {
      ASSERT_EQ(dequeued[s].size(), kPerSender) << "sender " << s;
      for (uint32_t i = 0; i < kPerSender; ++i) {
      ASSERT_EQ(dequeued[s][i], i)
          << "sender " << s << " dequeued out of order at " << i;
      }
    }
  }
}

TEST(Scheduler, FifoPerSenderAcrossEightWorkersUnderRepeatRuns) {
  // With 8 workers sharing the queue, it is still front-pop-only, so
  // successive takes of any ONE consumer from any one sender must be
  // monotonically increasing (a LIFO or back-pop would break this), and
  // every item must be dequeued exactly once. This is the strongest
  // per-sender FIFO statement observable race-free from outside the queue
  // lock: two consumers' records of adjacent items can interleave in
  // wall-clock order even though the deque itself popped them in order.
  for (int run = 0; run < 20; ++run) {
    const uint32_t kWorkers = 8;
    const uint32_t kSenders = 5;
    const uint32_t kPerSender = 200;
    engine::Scheduler sched(kWorkers, /*byte_budget=*/1ull << 30);

    std::vector<std::map<uint32_t, std::vector<uint32_t>>> per_worker(kWorkers);

    std::vector<std::thread> workers;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        // Batched pop: the exact engine dequeue path.
        std::vector<engine::Scheduler::Work> batch;
        while (sched.next_batch(&batch, 16) > 0) {
          for (auto& work : batch) {
            if (!work.is_item) continue;
            per_worker[w][work.item.src].push_back(
                static_cast<uint32_t>(std::stoul(std::string(work.item.payload.view()))));
          }
          batch.clear();
        }
      });
    }

    std::vector<std::thread> senders;
    for (uint32_t s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (uint32_t i = 0; i < kPerSender; ++i) {
          engine::QueueItem item;
          item.src = s;
          item.payload = std::to_string(i);
          ASSERT_TRUE(sched.push_bin(std::move(item)));
        }
      });
    }
    for (auto& t : senders) t.join();

    while (sched.queued_items() != 0) std::this_thread::yield();
    sched.stop();
    for (auto& t : workers) t.join();

    std::map<uint32_t, std::vector<uint32_t>> all;  // completeness check
    for (uint32_t w = 0; w < kWorkers; ++w) {
      for (const auto& [src, seqs] : per_worker[w]) {
        for (size_t i = 1; i < seqs.size(); ++i) {
          ASSERT_LT(seqs[i - 1], seqs[i])
              << "worker " << w << " saw sender " << src << " out of order";
        }
        all[src].insert(all[src].end(), seqs.begin(), seqs.end());
      }
    }
    for (uint32_t s = 0; s < kSenders; ++s) {
      ASSERT_EQ(all[s].size(), kPerSender) << "sender " << s;
      std::sort(all[s].begin(), all[s].end());
      for (uint32_t i = 0; i < kPerSender; ++i) {
        ASSERT_EQ(all[s][i], i) << "sender " << s << " item lost or duplicated";
      }
    }
  }
}

TEST(Scheduler, OneSendersBacklogSpreadsAcrossWorkers) {
  // One sender's backlog, no bigger than one engine batch, is queued before
  // 8 workers start. Each pop takes at most its fair share of the backlog,
  // so the first worker cannot take it all and at least one more worker
  // must get items. Every item is dequeued exactly once, and each worker
  // sees its items in increasing order.
  const uint32_t kWorkers = 8;
  const uint32_t kItems = 32;  // the engine's batch size
  engine::Scheduler sched(kWorkers, 1ull << 30);
  for (uint32_t i = 0; i < kItems; ++i) {
    engine::QueueItem item;
    item.src = 7;
    item.payload = std::to_string(i);
    ASSERT_TRUE(sched.push_bin(std::move(item)));
  }

  std::vector<std::vector<uint32_t>> per_worker(kWorkers);
  std::atomic<uint32_t> started{0};
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      // Start together so the backlog is what decides who gets work.
      started.fetch_add(1);
      while (started.load() < kWorkers) std::this_thread::yield();
      std::vector<engine::Scheduler::Work> batch;
      while (sched.next_batch(&batch, kItems) > 0) {
        for (auto& work : batch) {
          per_worker[w].push_back(
              static_cast<uint32_t>(std::stoul(std::string(work.item.payload.view()))));
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        batch.clear();
      }
    });
  }
  while (sched.queued_items() != 0) std::this_thread::yield();
  sched.stop();
  for (auto& t : workers) t.join();

  std::vector<uint32_t> all;
  uint32_t busy = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    const auto& seqs = per_worker[w];
    for (size_t i = 1; i < seqs.size(); ++i) {
      ASSERT_LT(seqs[i - 1], seqs[i]) << "worker " << w << " out of order";
    }
    if (!seqs.empty()) ++busy;
    all.insert(all.end(), seqs.begin(), seqs.end());
  }
  EXPECT_GE(busy, 2u) << "one worker took the whole backlog";
  ASSERT_EQ(all.size(), kItems);
  std::sort(all.begin(), all.end());
  for (uint32_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(all[i], i) << "item lost or duplicated";
  }
}

TEST(Scheduler, ByteBudgetBlocksAndForceBypasses) {
  engine::Scheduler sched(/*workers=*/1, /*byte_budget=*/64);

  engine::QueueItem a;
  a.src = 0;
  a.payload = std::string(64, 'a');
  ASSERT_TRUE(sched.push_bin(std::move(a)));  // fills the budget exactly

  // A forced push (crash-retry path) must not block even though the budget
  // is exhausted.
  engine::QueueItem b;
  b.src = 0;
  b.payload = std::string(64, 'b');
  ASSERT_TRUE(sched.push_bin(std::move(b), /*force=*/true));
  EXPECT_EQ(sched.queued_bytes(), 128u);

  // A normal push now blocks until a worker pops; run one pop concurrently.
  std::thread popper([&] {
    engine::Scheduler::Work work;
    ASSERT_TRUE(sched.next(&work));
    ASSERT_TRUE(sched.next(&work));
  });
  engine::QueueItem c;
  c.src = 0;
  c.payload = std::string(8, 'c');
  ASSERT_TRUE(sched.push_bin(std::move(c)));  // returns once under budget
  popper.join();

  engine::Scheduler::Work work;
  std::thread last([&] { ASSERT_TRUE(sched.next(&work)); });
  last.join();
  EXPECT_EQ(sched.queued_bytes(), 0u);
  sched.stop();
}

TEST(Scheduler, TasksRunAndStopDrainsEverything) {
  const uint32_t kWorkers = 4;
  engine::Scheduler sched(kWorkers, 1ull << 30);
  std::vector<std::thread> workers;
  std::atomic<uint64_t> ran{0};
  for (uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      engine::Scheduler::Work work;
      while (sched.next(&work)) {
        if (!work.is_item) work.task();
      }
    });
  }
  const uint64_t kTasks = 1000;
  for (uint64_t i = 0; i < kTasks; ++i) {
    sched.push_task([&ran] { ran.fetch_add(1); });
  }
  while (sched.queued_items() != 0) std::this_thread::yield();
  sched.stop();
  for (auto& t : workers) t.join();
  EXPECT_EQ(ran.load(), kTasks);
}

}  // namespace
}  // namespace hamr

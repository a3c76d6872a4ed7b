// Dataset cache test suite (DESIGN.md §15): residency and eviction policy,
// pin leases, generation invalidation, the stable-partitioning contract, and
// the cache's integration points - iterative app drivers falling back cold on
// a miss, JobService publish/invalidate hooks across tenants, and the query
// planner's staged-table reuse.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common.h"
#include "apps/pagerank.h"
#include "cache/dataset_cache.h"
#include "cache/scan_loader.h"
#include "cluster/cluster.h"
#include "common/hash.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "obs/event_log.h"
#include "query/planner.h"
#include "query/reference.h"
#include "query/testgen.h"
#include "service/job_service.h"

using namespace hamr;
using namespace hamr::cache;

namespace {

DatasetCache::Config small_budget(uint64_t bytes,
                                  obs::EventLog* log = nullptr) {
  DatasetCache::Config cfg;
  cfg.byte_budget = bytes;
  cfg.block_bytes = 1024;
  cfg.event_log = log;
  return cfg;
}

// Commits a dataset whose shard n holds `per_shard` records keyed
// "<name>/<n>/<i>", each with a `value_bytes`-sized value.
std::shared_ptr<const Dataset> publish(DatasetCache& dcache,
                                       const std::string& name,
                                       uint32_t nodes, uint32_t per_shard,
                                       size_t value_bytes,
                                       PublishOptions options = {}) {
  auto writer = dcache.begin(name, options);
  const std::string value(value_bytes, 'v');
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint32_t i = 0; i < per_shard; ++i) {
      writer->append(n, name + "/" + std::to_string(n) + "/" + std::to_string(i),
                     value);
    }
  }
  EXPECT_TRUE(writer->commit());
  return dcache.pin(name);
}

// All (key, value) records of one shard, in append order.
std::vector<std::pair<std::string, std::string>> read_shard(
    const Dataset& dataset, uint32_t node) {
  std::vector<std::pair<std::string, std::string>> out;
  ShardCursor cursor;
  std::string_view key, value;
  while (next_record(dataset.shard(node), &cursor, &key, &value)) {
    out.emplace_back(std::string(key), std::string(value));
  }
  return out;
}

}  // namespace

// --- residency, eviction, pins ----------------------------------------------

TEST(DatasetCache, CommitPublishesFramedRecordsPerShard) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(3));
  DatasetCache dcache(cluster, small_budget(1 << 20));

  auto writer = dcache.begin("t/basic");
  writer->append(0, "a", "1");
  writer->append(2, "b", std::string(3000, 'x'));  // spans multiple blocks
  writer->append(2, "c", "3");
  ASSERT_TRUE(writer->commit());

  auto ds = dcache.pin("t/basic");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->nodes(), 3u);
  EXPECT_EQ(ds->total_records(), 3u);
  EXPECT_EQ(read_shard(*ds, 0),
            (std::vector<std::pair<std::string, std::string>>{{"a", "1"}}));
  EXPECT_TRUE(read_shard(*ds, 1).empty());
  const auto shard2 = read_shard(*ds, 2);
  ASSERT_EQ(shard2.size(), 2u);
  EXPECT_EQ(shard2[0].first, "b");
  EXPECT_EQ(shard2[0].second, std::string(3000, 'x'));
  EXPECT_EQ(shard2[1], (std::pair<std::string, std::string>{"c", "3"}));
  EXPECT_EQ(dcache.stats().hits, 1u);
}

TEST(DatasetCache, BlocksSealBeforeCrossingTheTargetSize) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(1));
  DatasetCache dcache(cluster, small_budget(1 << 20));  // 1024-byte blocks

  std::vector<std::pair<std::string, std::string>> records;
  for (int i = 0; i < 400; ++i) {
    records.emplace_back("k" + std::to_string(i),
                         std::string(static_cast<size_t>(i % 97), 'v'));
  }
  records.emplace(records.begin() + 200, "big", std::string(3000, 'x'));
  auto writer = dcache.begin("t/blocks");
  for (const auto& [key, value] : records) writer->append(0, key, value);
  ASSERT_TRUE(writer->commit());

  auto ds = dcache.pin("t/blocks");
  ASSERT_NE(ds, nullptr);
  const Dataset::Shard& shard = ds->shard(0);
  ASSERT_GT(shard.blocks.size(), 1u);
  // The 3000-byte record (framed: 1 + 3 + 2 + 3000 bytes) fills a block of
  // its own; every other block stays inside the buffer reserved for it.
  const size_t big_block = 1 + 3 + 2 + 3000;
  size_t big_blocks = 0;
  for (const auto& block : shard.blocks) {
    if (block->size() == big_block) {
      ++big_blocks;
      continue;
    }
    EXPECT_LE(block->size(), 1024u);
    EXPECT_LE(block->capacity(), 1024u);
  }
  EXPECT_EQ(big_blocks, 1u);
  EXPECT_EQ(read_shard(*ds, 0), records);
}

TEST(DatasetCache, LruEvictsUnpinnedDatasetsToFitBudget) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  obs::EventLog log;
  DatasetCache dcache(cluster, small_budget(64 * 1024, &log));

  // Three ~28KB datasets against a 64KB budget: committing "c" must evict
  // the least recently used one.
  publish(dcache, "t/a", 2, 14, 1000).reset();
  publish(dcache, "t/b", 2, 14, 1000).reset();
  ASSERT_NE(dcache.pin("t/a"), nullptr);  // touch: "b" is now LRU
  publish(dcache, "t/c", 2, 14, 1000).reset();

  EXPECT_EQ(dcache.pin("t/b"), nullptr);  // evicted
  EXPECT_NE(dcache.pin("t/a"), nullptr);
  EXPECT_NE(dcache.pin("t/c"), nullptr);
  EXPECT_LE(dcache.bytes_resident(), dcache.byte_budget());
  EXPECT_GE(dcache.stats().evictions, 1u);
  EXPECT_GE(log.count(obs::EventKind::kDatasetEvict), 1u);
  EXPECT_GE(log.count(obs::EventKind::kDatasetPin), 3u);
}

TEST(DatasetCache, PinnedDatasetIsNeverEvicted) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  DatasetCache dcache(cluster, small_budget(64 * 1024));

  auto pinned = publish(dcache, "t/pinned", 2, 14, 1000);
  ASSERT_NE(pinned, nullptr);
  // Blow well past the budget while the pin is held: "t/pinned" must survive
  // every eviction pass (budget overshoot is allowed for leases).
  publish(dcache, "t/f1", 2, 14, 1000).reset();
  publish(dcache, "t/f2", 2, 14, 1000).reset();
  publish(dcache, "t/f3", 2, 14, 1000).reset();
  EXPECT_NE(dcache.pin("t/pinned"), nullptr);

  // Released, it becomes ordinary LRU prey.
  pinned.reset();
  dcache.pin("t/pinned").reset();  // hit-release so the pin count drops
  publish(dcache, "t/f4", 2, 14, 1000).reset();
  publish(dcache, "t/f5", 2, 14, 1000).reset();
  EXPECT_LE(dcache.bytes_resident(), dcache.byte_budget());
}

TEST(DatasetCache, InvalidateDropsNewPinsButOutstandingLeasesStillRead) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  DatasetCache dcache(cluster, small_budget(1 << 20));

  auto lease = publish(dcache, "t/inv", 2, 4, 100);
  ASSERT_NE(lease, nullptr);
  dcache.invalidate("t/inv");

  EXPECT_EQ(dcache.pin("t/inv"), nullptr);  // new pins miss
  EXPECT_EQ(read_shard(*lease, 0).size(), 4u);  // old lease reads its snapshot
  EXPECT_GE(dcache.stats().invalidations, 1u);
  EXPECT_GE(dcache.stats().misses, 1u);
}

TEST(DatasetCache, InvalidateFencesWritersBegunBeforeIt) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  DatasetCache dcache(cluster, small_budget(1 << 20));

  auto stale = dcache.begin("t/fence");
  stale->append(0, "old", "1");
  dcache.invalidate("t/fence");
  EXPECT_FALSE(stale->commit());       // fenced: begun before the invalidate
  EXPECT_EQ(dcache.pin("t/fence"), nullptr);

  auto fresh = dcache.begin("t/fence");  // begun after: commits fine
  fresh->append(0, "new", "2");
  EXPECT_TRUE(fresh->commit());
  auto ds = dcache.pin("t/fence");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(read_shard(*ds, 0).front().first, "new");
}

TEST(DatasetCache, StampMismatchIsAMiss) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  DatasetCache dcache(cluster, small_budget(1 << 20));

  PublishOptions options;
  options.stamp = 42;
  publish(dcache, "t/stamp", 2, 2, 10, options).reset();

  EXPECT_NE(dcache.pin("t/stamp", 42), nullptr);
  EXPECT_NE(dcache.pin("t/stamp"), nullptr);      // 0 = don't care
  EXPECT_EQ(dcache.pin("t/stamp", 43), nullptr);  // stale-source guard
}

TEST(DatasetCache, AbortedWriterLeavesCacheUntouched) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  DatasetCache dcache(cluster, small_budget(1 << 20));

  publish(dcache, "t/abort", 2, 2, 10).reset();
  const uint64_t bytes_before = dcache.bytes_resident();

  auto writer = dcache.begin("t/abort");
  writer->append(0, "junk", std::string(5000, 'j'));
  writer->abort();

  auto ds = dcache.pin("t/abort");  // previous generation still served
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->total_records(), 4u);
  EXPECT_EQ(dcache.bytes_resident(), bytes_before);
}

// --- stable partitioning -----------------------------------------------------

TEST(DatasetCache, KeyPartitionedPublishInheritsShardLayout) {
  // The cached PageRank chain publishes "pagerank/adj" from the reduce that
  // built adjacency: shard n must hold exactly the keys whose hash partition
  // is n, and aligned_edge() must compile to a shuffle-free local edge.
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::WebGraphSpec spec;
  spec.num_pages = 256;
  spec.num_edges = 2048;
  auto shards = apps::make_shards(env.nodes(), [&](uint32_t i) {
    return gen::web_graph_shard(spec, i, 4);
  });
  auto staged = apps::stage_input(env, "pr_layout", shards, 16 * 1024);
  apps::pagerank::Params params;
  params.num_pages = spec.num_pages;
  params.iterations = 1;
  apps::pagerank::run_hamr_cached(env, staged, params);

  auto adj = env.dataset_cache->pin("pagerank/adj");
  ASSERT_NE(adj, nullptr);
  EXPECT_TRUE(adj->options().key_partitioned);
  EXPECT_GT(adj->total_records(), 0u);
  for (uint32_t n = 0; n < adj->nodes(); ++n) {
    for (const auto& [key, value] : read_shard(*adj, n)) {
      EXPECT_EQ(partition_of(key, adj->nodes()), n) << "key " << key;
    }
  }
  const engine::EdgeOptions edge = aligned_edge(*adj);
  EXPECT_TRUE(edge.local);
}

TEST(DatasetCache, CustomPartitionerIsInheritedByConsumers) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(4));
  DatasetCache dcache(cluster, small_budget(1 << 20));

  PublishOptions options;
  options.partitioner = [](std::string_view key, uint32_t nodes) {
    return static_cast<uint32_t>(key.size() % nodes);
  };
  publish(dcache, "t/custom", 4, 2, 10, options).reset();

  auto ds = dcache.pin("t/custom");
  ASSERT_NE(ds, nullptr);
  const engine::EdgeOptions edge = aligned_edge(*ds);
  EXPECT_FALSE(edge.local);  // not provably aligned - shuffle stays
  ASSERT_NE(edge.partitioner, nullptr);
  EXPECT_EQ(edge.partitioner("abc", 4), 3u);
}

// --- iterative drivers: miss -> cold fallback --------------------------------

TEST(CachedPageRank, RanksAreExactlyEqualToTheColdPath) {
  gen::WebGraphSpec spec;
  spec.num_pages = 256;
  spec.num_edges = 2048;
  apps::pagerank::Params params;
  params.num_pages = spec.num_pages;
  params.iterations = 3;

  apps::BenchEnv cold = apps::BenchEnv::fast(4);
  auto shards = apps::make_shards(cold.nodes(), [&](uint32_t i) {
    return gen::web_graph_shard(spec, i, 4);
  });
  auto staged_cold = apps::stage_input(cold, "pr_eq", shards, 16 * 1024);
  apps::pagerank::run_hamr(cold, staged_cold, params);
  const auto expected = apps::pagerank::hamr_ranks(cold, params);

  apps::BenchEnv cached = apps::BenchEnv::fast(4);
  auto staged = apps::stage_input(cached, "pr_eq", shards, 16 * 1024);
  apps::pagerank::run_hamr_cached(cached, staged, params);
  EXPECT_EQ(apps::pagerank::hamr_ranks(cached, params), expected);
  EXPECT_GE(cached.dataset_cache->stats().hits, 2u);  // iterations 2 and 3
}

TEST(CachedPageRank, MidChainInvalidationFallsBackColdAndRepublishes) {
  gen::WebGraphSpec spec;
  spec.num_pages = 256;
  spec.num_edges = 2048;
  apps::pagerank::Params params;
  params.num_pages = spec.num_pages;
  params.iterations = 3;

  apps::BenchEnv cold = apps::BenchEnv::fast(4);
  auto shards = apps::make_shards(cold.nodes(), [&](uint32_t i) {
    return gen::web_graph_shard(spec, i, 4);
  });
  auto staged_cold = apps::stage_input(cold, "pr_inv", shards, 16 * 1024);
  apps::pagerank::run_hamr(cold, staged_cold, params);
  const auto expected = apps::pagerank::hamr_ranks(cold, params);

  // Drive the cached chain iteration by iteration and yank the dataset out
  // from under it after iteration 1: iteration 2 must miss, rebuild cold,
  // republish, and iteration 3 must hit the fresh generation.
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  auto staged = apps::stage_input(env, "pr_inv", shards, 16 * 1024);
  apps::pagerank::clear_pagerank_state(env);
  apps::pagerank::run_hamr_cached_iteration(env, staged, params, 0);
  apps::pagerank::run_hamr_cached_iteration(env, staged, params, 1);
  env.dataset_cache->invalidate("pagerank/adj");
  const auto before = env.dataset_cache->stats();
  apps::pagerank::run_hamr_cached_iteration(env, staged, params, 2);

  const auto after = env.dataset_cache->stats();
  EXPECT_GT(after.misses, before.misses);  // the fallback actually triggered
  EXPECT_NE(env.dataset_cache->pin("pagerank/adj"), nullptr);  // republished
  EXPECT_EQ(apps::pagerank::hamr_ranks(env, params), expected);
}

// --- JobService integration --------------------------------------------------

namespace {

// Minimal publishing job: the loader emits its split's records, a sink map
// discards them, and a publish_tap on the connecting edge writes every routed
// record into the dataset writer.
class CountLoader : public engine::LoaderFlowlet {
 public:
  bool load_chunk(const engine::InputSplit& split, uint64_t*,
                  engine::Context& ctx) override {
    for (uint64_t i = 0; i < split.user_tag; ++i) {
      const std::string id = std::to_string(split.offset + i);
      ctx.emit(0, "k" + id, "v" + id);
    }
    return false;
  }
};

class DropMap : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair&, engine::Context&) override {}
};

service::JobWork publishing_job(uint32_t nodes, uint64_t base,
                                std::shared_ptr<DatasetWriter> writer) {
  service::JobWork work;
  const auto loader =
      work.graph.add_loader("src", [] { return std::make_unique<CountLoader>(); });
  const auto sink =
      work.graph.add_map("sink", [] { return std::make_unique<DropMap>(); });
  work.graph.connect(loader, sink,
                     publish_tap(engine::EdgeOptions{}, writer));
  for (uint32_t n = 0; n < nodes; ++n) {
    engine::InputSplit split;
    split.preferred_node = n;
    split.offset = base + 10 * n;
    split.user_tag = 3;  // three records per node
    work.inputs.add(loader, split);
  }
  work.publish.push_back(std::move(writer));
  return work;
}

}  // namespace

TEST(CacheService, TwoTenantsPublishDisjointDatasetsWithoutCrossTalk) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(4));
  DatasetCache dcache(cluster, small_budget(1 << 20));
  service::ServiceConfig cfg;
  cfg.lanes = 2;
  cfg.engine = engine::EngineConfig::fast();
  cfg.dataset_cache = &dcache;
  service::JobService svc(cluster, cfg);

  service::JobSpec alice, bob;
  alice.tenant = "alice";
  bob.tenant = "bob";
  auto t1 = svc.submit(alice, publishing_job(4, 100, dcache.begin("alice/data")));
  auto t2 = svc.submit(bob, publishing_job(4, 900, dcache.begin("bob/data")));
  ASSERT_EQ(t1->wait(), service::JobStatus::kDone);
  ASSERT_EQ(t2->wait(), service::JobStatus::kDone);

  auto a = dcache.pin("alice/data");
  auto b = dcache.pin("bob/data");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->total_records(), 12u);
  EXPECT_EQ(b->total_records(), 12u);
  // Key sets are disjoint: no record leaked across tenants' datasets.
  std::set<std::string> a_keys, b_keys;
  for (uint32_t n = 0; n < 4; ++n) {
    for (const auto& [key, value] : read_shard(*a, n)) a_keys.insert(key);
    for (const auto& [key, value] : read_shard(*b, n)) b_keys.insert(key);
  }
  EXPECT_EQ(a_keys.size(), 12u);
  EXPECT_EQ(b_keys.size(), 12u);
  for (const auto& key : a_keys) EXPECT_EQ(b_keys.count(key), 0u) << key;
}

TEST(CacheService, FailedPublisherIsAbortedAndResidentGenerationInvalidated) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  DatasetCache dcache(cluster, small_budget(1 << 20));
  service::ServiceConfig cfg;
  cfg.lanes = 1;
  cfg.engine = engine::EngineConfig::fast();
  cfg.dataset_cache = &dcache;
  service::JobService svc(cluster, cfg);

  // A good generation is resident; a failed re-derivation must take it down
  // (the writer may have been refreshing state whose upstream changed).
  publish(dcache, "svc/data", 2, 4, 100).reset();
  ASSERT_NE(dcache.pin("svc/data"), nullptr);

  service::JobWork bad;
  bad.graph.add_loader("broken", nullptr);  // Engine::run throws
  bad.publish.push_back(dcache.begin("svc/data"));
  auto ticket = svc.submit(service::JobSpec{}, std::move(bad));
  ASSERT_EQ(ticket->wait(), service::JobStatus::kFailed);

  EXPECT_EQ(dcache.pin("svc/data"), nullptr);
  EXPECT_GE(dcache.stats().invalidations, 1u);
}

// --- query planner integration -----------------------------------------------

TEST(CacheQuery, StagedTablesAreReusedAcrossQueriesInOneSession) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  query::GeneratedQuery q =
      query::generate_query(query::Family::kJoinGroupBy, /*seed=*/3);
  const query::Schema schema = query::output_schema(*q.plan, q.catalog);
  const auto expected =
      query::canonical(schema, query::reference_eval(*q.plan, q.catalog));
  ASSERT_FALSE(expected.empty());

  DatasetCache* dcache = env.dataset_cache.get();
  const auto first = query::canonical(
      schema,
      query::run_on_engine(*env.engine, *q.plan, q.catalog, "q1", dcache));
  EXPECT_EQ(first, expected);
  const auto staged_after_first = dcache->stats();

  // Same tables, new tag: the second query must pin the staged datasets
  // instead of re-staging, and still match the reference exactly.
  const auto second = query::canonical(
      schema,
      query::run_on_engine(*env.engine, *q.plan, q.catalog, "q2", dcache));
  EXPECT_EQ(second, expected);
  EXPECT_GT(dcache->stats().hits, staged_after_first.hits);
}

// Chaos test suite: deterministic fault injection and end-to-end recovery.
//
// The heart of the suite is the byte-identical guarantee: a job run under a
// fault plan (message drops / duplicates / delays, injected task crashes,
// failing spill writes) must produce EXACTLY the output of a fault-free run -
// not approximately, not "eventually". WordCount and PageRank both run to
// completion under chaos plans and are compared against the sequential
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "apps/pagerank.h"
#include "apps/wordcount.h"
#include "common/random.h"
#include "fault/fault.h"
#include "sort/sort.h"
#include "gen/generators.h"
#include "net/message.h"
#include "obs/metrics_snapshot.h"
#include "query/planner.h"
#include "query/reference.h"
#include "query/testgen.h"
#include "stream/source.h"
#include "stream/stream_service.h"
#include "stream/window.h"

using namespace hamr;

namespace {


// A chaos-rigged 4-node correctness environment: cost models off, injector
// wired into the transport, every disk, and the engine runtime.
struct ChaosEnv {
  fault::FaultInjector injector;
  apps::BenchEnv env;

  explicit ChaosEnv(const fault::FaultPlan& plan, uint32_t nodes = 4,
                    engine::EngineConfig base = engine::EngineConfig::fast())
      : injector(plan),
        env(apps::BenchEnv::make(cluster::ClusterConfig::fast(nodes),
                                 with_injector(base, &injector))) {
    env.cluster->set_fault_injector(&injector);
  }

  static engine::EngineConfig with_injector(engine::EngineConfig cfg,
                                            fault::FaultInjector* injector) {
    cfg.fault_injector = injector;
    return cfg;
  }
};

// Records the injector's decision sequence for a handful of streams.
std::string decision_trace(fault::FaultInjector& injector, int events) {
  std::string trace;
  for (int i = 0; i < events; ++i) {
    const auto m01 = injector.on_message(0, 1, net::msg_type::kEngineFrame);
    const auto m23 = injector.on_message(2, 3, net::msg_type::kEngineFrame);
    trace += static_cast<char>('a' + static_cast<int>(m01.action));
    trace += static_cast<char>('a' + static_cast<int>(m23.action));
    trace += injector.on_disk_write(1) ? 'W' : 'w';
    trace += injector.on_task_start(0, 2) ? 'C' : 'c';
  }
  return trace;
}

}  // namespace

// --- FaultInjector determinism --------------------------------------------

TEST(FaultInjector, SamePlanAndSeedYieldSameFaultSequence) {
  const fault::FaultPlan plan = fault::FaultPlan::chaos(42, 0.3, 0.1);
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  EXPECT_EQ(decision_trace(a, 400), decision_trace(b, 400));
  EXPECT_EQ(a.stats().total(), b.stats().total());
}

TEST(FaultInjector, DifferentSeedYieldsDifferentSequence) {
  fault::FaultPlan p1 = fault::FaultPlan::chaos(1, 0.3, 0.1);
  fault::FaultPlan p2 = p1;
  p2.seed = 2;
  fault::FaultInjector a(p1);
  fault::FaultInjector b(p2);
  EXPECT_NE(decision_trace(a, 400), decision_trace(b, 400));
}

TEST(FaultInjector, StreamsAreIndependentOfInterleaving) {
  // Consuming events of OTHER streams between queries must not change a
  // stream's own decision sequence (this is what makes multi-threaded runs
  // reproducible per stream).
  const fault::FaultPlan plan = fault::FaultPlan::chaos(7, 0.4);
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);

  std::vector<fault::MessageFault> seq_a, seq_b;
  for (int i = 0; i < 100; ++i) {
    seq_a.push_back(a.on_message(0, 1, net::msg_type::kEngineFrame).action);
  }
  for (int i = 0; i < 100; ++i) {
    // Interleave traffic on other links and other hook types.
    b.on_message(1, 0, net::msg_type::kEngineFrame);
    b.on_message(2, 1, net::msg_type::kEngineFrame);
    b.on_disk_write(0);
    b.on_task_start(1, 1);
    seq_b.push_back(b.on_message(0, 1, net::msg_type::kEngineFrame).action);
  }
  EXPECT_EQ(seq_a, seq_b);
}

TEST(FaultInjector, LocalAndNonFaultableTrafficIsNeverFaulted) {
  fault::FaultPlan plan;
  plan.default_link.drop = 1.0;
  fault::FaultInjector injector(plan);
  // Local traffic.
  EXPECT_EQ(injector.on_message(3, 3, net::msg_type::kEngineFrame).action,
            fault::MessageFault::kNone);
  // Type not in faultable_types (defaults to the engine frame/ack channel).
  EXPECT_EQ(injector.on_message(0, 1, net::msg_type::kRpcRequest).action,
            fault::MessageFault::kNone);
  // Faultable remote traffic with drop=1 always drops.
  EXPECT_EQ(injector.on_message(0, 1, net::msg_type::kEngineFrame).action,
            fault::MessageFault::kDrop);
  EXPECT_EQ(injector.stats().messages_dropped, 1u);
}

TEST(FaultInjector, PerLinkOverridesBeatTheDefault) {
  fault::FaultPlan plan;
  plan.default_link.drop = 1.0;
  plan.links[{0, 1}] = fault::LinkFaults{};  // quiet link
  fault::FaultInjector injector(plan);
  EXPECT_EQ(injector.on_message(0, 1, net::msg_type::kEngineFrame).action,
            fault::MessageFault::kNone);
  EXPECT_EQ(injector.on_message(1, 0, net::msg_type::kEngineFrame).action,
            fault::MessageFault::kDrop);
}

TEST(FaultInjector, CrashPointsFireExactlyTimesThenStop) {
  fault::FaultPlan plan;
  fault::CrashPoint cp;
  cp.node = 2;
  cp.flowlet = 1;
  cp.times = 3;
  plan.crash_points.push_back(cp);
  fault::FaultInjector injector(plan);
  int crashes = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.on_task_start(2, 1)) ++crashes;
  }
  EXPECT_EQ(crashes, 3);
  EXPECT_FALSE(injector.on_task_start(2, 2));  // other flowlet unaffected
  EXPECT_FALSE(injector.on_task_start(1, 1));  // other node unaffected
  EXPECT_EQ(injector.stats().task_crashes, 3u);
}

// --- End-to-end chaos runs -------------------------------------------------

TEST(Chaos, WordCountSurvivesMessageChaosByteIdentical) {
  // 5% of shuffle frames suffer a fault (drop / duplicate / delay) and 2% of
  // task executions crash at start; the output must equal the reference
  // exactly.
  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/11, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.02));
  gen::TextSpec spec;
  spec.total_bytes = 96 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_chaos", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(chaos.env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  EXPECT_GT(info.engine_result.faults_injected, 0u);
}

TEST(ChaosIR, FusedWordCountSurvivesChaosByteIdentical) {
  // The same 5% drop + 2% crash plan, but the job is lowered through the
  // standard IR pass pipeline (loader+splitter fused into one task body).
  // Fusion moves work between flowlets, so retries replay bigger units -
  // the output must still match the sequential reference byte for byte.
  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/11, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.02));
  gen::TextSpec spec;
  spec.total_bytes = 96 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_chaos_ir", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(chaos.env, staged, /*combine=*/false,
                                        /*use_full_reduce=*/false,
                                        /*fused=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  EXPECT_GT(info.engine_result.faults_injected, 0u);
}

TEST(ChaosIR, FusedCombinerWordCountSurvivesChaosByteIdentical) {
  // Fused lowering with the sender-side combiner placed by the IR pipeline:
  // the combine edge folds through the fused flowlet's forwarded fold().
  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/23, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.02));
  gen::TextSpec spec;
  spec.total_bytes = 96 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_chaos_irc", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(chaos.env, staged, /*combine=*/true,
                                        /*use_full_reduce=*/false,
                                        /*fused=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  EXPECT_GT(info.engine_result.faults_injected, 0u);
}

TEST(Chaos, DroppedFramesAreRetransmittedUntilAcked) {
  // Half of all data frames (acks excluded) vanish in flight; the job can
  // only complete through retransmission, and the output must still be
  // exact despite every surviving duplicate.
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.default_link.drop = 0.5;
  plan.faultable_types = {net::msg_type::kEngineFrame};
  ChaosEnv chaos(plan);

  gen::TextSpec spec;
  spec.total_bytes = 64 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_drop", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(chaos.env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  EXPECT_GT(chaos.injector.stats().messages_dropped, 0u);
  // The JobResult metrics snapshot tells the story: every dropped data
  // frame had to be retransmitted for the job to finish, and frames flowed.
  const obs::MetricsSnapshot& m = info.engine_result.metrics;
  EXPECT_GT(m.counter("engine.resends"), 0u);
  EXPECT_GT(m.counter("engine.frames_sent"), 0u);
  EXPECT_GT(m.counter("net.fault_dropped"), 0u);
  // First-delivery receives never exceed originals sent.
  EXPECT_LE(m.counter("engine.frames_recv"), m.counter("engine.frames_sent"));
}

TEST(Chaos, WordCountFullReduceSurvivesCrashAndDiskChaos) {
  fault::FaultPlan plan = fault::FaultPlan::chaos(/*seed=*/5, /*msg_rate=*/0.04,
                                                  /*crash_rate=*/0.03);
  plan.disk_write_error_rate = 0.3;
  engine::EngineConfig cfg = engine::EngineConfig::fast();
  // Tiny staging budget so the reduce path spills (and hits disk faults).
  cfg.memory_budget_bytes = 16 * 1024;
  ChaosEnv chaos(plan, 4, cfg);

  gen::TextSpec spec;
  spec.total_bytes = 96 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_spill", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(chaos.env, staged, /*combine=*/false,
                                        /*use_full_reduce=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  EXPECT_GT(info.engine_result.metrics.counter("engine.spill_retries"), 0u);
}

TEST(Chaos, PageRankSurvivesChaosWithIdenticalRanks) {
  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/13, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.01));
  gen::WebGraphSpec spec;
  spec.num_pages = 256;
  spec.num_edges = 2048;
  auto shards = apps::make_shards(chaos.env.nodes(), [&](uint32_t i) {
    return gen::web_graph_shard(spec, i, 4);
  });
  auto staged = apps::stage_input(chaos.env, "pr_chaos", shards, 16 * 1024);
  apps::pagerank::Params params;
  params.num_pages = spec.num_pages;
  params.iterations = 3;
  const auto expected = apps::pagerank::reference(shards, params);

  auto info = apps::pagerank::run_hamr(chaos.env, staged, params);
  const auto ranks = apps::pagerank::hamr_ranks(chaos.env, params);
  ASSERT_EQ(ranks.size(), expected.size());
  for (const auto& [page, rank] : expected) {
    EXPECT_NEAR(ranks.at(page), rank, 1e-12) << "page " << page;
  }
  uint64_t faults = 0;
  for (const auto& r : info.engine_results) faults += r.faults_injected;
  EXPECT_GT(faults, 0u);
}

TEST(Chaos, CachedPageRankStaysByteIdenticalUnderChaos) {
  // The dataset-cache iterative chain (DESIGN.md §15) under the standard 5%
  // message chaos + 2% task-crash plan: final ranks must be EXACTLY the
  // clean cold path's - the cache changes where contributions come from
  // (resident blocks vs. KV store), never what they sum to, and recovery
  // must not replay a published record (taps fire once per emitted record).
  gen::WebGraphSpec spec;
  spec.num_pages = 256;
  spec.num_edges = 2048;
  apps::pagerank::Params params;
  params.num_pages = spec.num_pages;
  params.iterations = 3;

  apps::BenchEnv clean = apps::BenchEnv::fast(4);
  auto shards = apps::make_shards(clean.nodes(), [&](uint32_t i) {
    return gen::web_graph_shard(spec, i, 4);
  });
  auto staged_clean = apps::stage_input(clean, "pr_cc", shards, 16 * 1024);
  apps::pagerank::run_hamr(clean, staged_clean, params);
  const auto expected = apps::pagerank::hamr_ranks(clean, params);

  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/19, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.02));
  auto staged = apps::stage_input(chaos.env, "pr_cc", shards, 16 * 1024);
  auto info = apps::pagerank::run_hamr_cached(chaos.env, staged, params);
  EXPECT_EQ(apps::pagerank::hamr_ranks(chaos.env, params), expected);

  uint64_t faults = 0;
  for (const auto& r : info.engine_results) faults += r.faults_injected;
  EXPECT_GT(faults, 0u);
  // The warm iterations really served from the cache, chaos notwithstanding.
  EXPECT_GE(chaos.env.dataset_cache->stats().hits, 2u);
}

TEST(Chaos, CacheInvalidationMidChainForcesColdFallbackByteIdentical) {
  // Crash-invalidates-generation scenario: the adjacency dataset vanishes
  // between iterations (as the JobService does when a publishing job fails).
  // The next iteration must miss, rebuild cold under the same chaos plan,
  // republish, and the chain's final ranks must still be exact.
  gen::WebGraphSpec spec;
  spec.num_pages = 256;
  spec.num_edges = 2048;
  apps::pagerank::Params params;
  params.num_pages = spec.num_pages;
  params.iterations = 3;

  apps::BenchEnv clean = apps::BenchEnv::fast(4);
  auto shards = apps::make_shards(clean.nodes(), [&](uint32_t i) {
    return gen::web_graph_shard(spec, i, 4);
  });
  auto staged_clean = apps::stage_input(clean, "pr_ci", shards, 16 * 1024);
  apps::pagerank::run_hamr(clean, staged_clean, params);
  const auto expected = apps::pagerank::hamr_ranks(clean, params);

  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/41, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.02));
  auto staged = apps::stage_input(chaos.env, "pr_ci", shards, 16 * 1024);
  apps::pagerank::clear_pagerank_state(chaos.env);
  apps::pagerank::run_hamr_cached_iteration(chaos.env, staged, params, 0);
  apps::pagerank::run_hamr_cached_iteration(chaos.env, staged, params, 1);
  chaos.env.dataset_cache->invalidate("pagerank/adj");
  const auto misses_before = chaos.env.dataset_cache->stats().misses;
  apps::pagerank::run_hamr_cached_iteration(chaos.env, staged, params, 2);

  EXPECT_GT(chaos.env.dataset_cache->stats().misses, misses_before);
  EXPECT_NE(chaos.env.dataset_cache->pin("pagerank/adj"), nullptr);
  EXPECT_EQ(apps::pagerank::hamr_ranks(chaos.env, params), expected);
  EXPECT_GT(chaos.injector.stats().total(), 0u);
}

TEST(Chaos, ExplicitCrashPointsAreRetriedToCompletion) {
  fault::FaultPlan plan;
  // The wordcount graph is loader(0) -> splitter map(1) -> count(2); crash
  // the splitter's first four bins on node 0 and the counter's first two on
  // node 3.
  plan.crash_points.push_back(fault::CrashPoint{0, 1, 4});
  plan.crash_points.push_back(fault::CrashPoint{3, 2, 2});
  ChaosEnv chaos(plan);

  gen::TextSpec spec;
  spec.total_bytes = 64 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_cp", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(chaos.env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  EXPECT_GE(info.engine_result.metrics.counter("engine.task_retries"), 6u);
  EXPECT_GE(chaos.injector.stats().task_crashes, 6u);
}

TEST(Chaos, ZeroFaultPlanRunsCleanlyOverReliableChannel) {
  // An injector with an all-zero plan still engages the seq/ack channel; the
  // run must be fault-free, retransmission-free, and correct.
  ChaosEnv chaos(fault::FaultPlan{});
  gen::TextSpec spec;
  spec.total_bytes = 64 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_zero", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(chaos.env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  EXPECT_EQ(info.engine_result.faults_injected, 0u);
  EXPECT_EQ(info.engine_result.metrics.counter("engine.task_retries"), 0u);
  EXPECT_EQ(info.engine_result.metrics.counter("engine.dup_frames"), 0u);

  // With a zero-fault plan EVERY fault counter in the metrics snapshot is
  // zero - the reliable channel must not manufacture faults of its own.
  const obs::MetricsSnapshot& m = info.engine_result.metrics;
  for (const char* name :
       {"engine.resends", "engine.dup_frames", "engine.task_retries",
        "engine.spill_retries", "net.fault_dropped", "disk.write_errors"}) {
    EXPECT_EQ(m.counter(name), 0u) << name;
  }

  // The same snapshot carries the per-flowlet task-latency histograms
  // registered at job build time (wordcount: loader 0 -> map 1 -> reduce 2).
  for (int f : {0, 1, 2}) {
    const std::string name = "engine.flowlet." + std::to_string(f) + ".task_us";
    const obs::HistogramSnapshot* h = m.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
  }
  const obs::HistogramSnapshot* task_us = m.histogram("engine.task_us");
  ASSERT_NE(task_us, nullptr);
  EXPECT_GT(task_us->count, 0u);
}

TEST(Chaos, ShuffleIsFramedExactlyWhenAnInjectorIsAttached) {
  // Only an attached injector can drop, duplicate or delay messages, so it
  // alone selects the seq/ack channel: the same 3-node WordCount sends no
  // frames without one, and frames every remote message - without a single
  // resend - under a zero-fault injector. Both runs stay exact.
  gen::TextSpec spec;
  spec.total_bytes = 48 * 1024;
  const auto shards = apps::make_shards(
      3, [&](uint32_t i) { return gen::text_shard(spec, i, 3); });
  const auto expected = apps::wordcount::reference(shards);

  apps::BenchEnv plain = apps::BenchEnv::make(cluster::ClusterConfig::fast(3),
                                              engine::EngineConfig::fast());
  const auto plain_input = apps::stage_input(plain, "wc_plain", shards, 16 * 1024);
  const auto unframed = apps::wordcount::run_hamr(plain, plain_input);
  EXPECT_EQ(apps::wordcount::hamr_output(plain), expected);
  EXPECT_EQ(unframed.engine_result.metrics.counter("engine.frames_sent"), 0u);

  ChaosEnv chaos(fault::FaultPlan{}, /*nodes=*/3);
  const auto chaos_input =
      apps::stage_input(chaos.env, "wc_framed", shards, 16 * 1024);
  const auto framed = apps::wordcount::run_hamr(chaos.env, chaos_input);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  const obs::MetricsSnapshot& m = framed.engine_result.metrics;
  EXPECT_GT(m.counter("engine.frames_sent"), 0u);
  EXPECT_EQ(m.counter("engine.resends"), 0u);
  EXPECT_EQ(m.counter("engine.dup_frames"), 0u);
}

TEST(Chaos, BackToBackJobsShareTheChannelState) {
  // Sequence numbers keep counting across jobs on the same engine; a second
  // job under the same injector must still be exact.
  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/3, /*msg_rate=*/0.05));
  gen::TextSpec spec;
  spec.total_bytes = 48 * 1024;
  auto shards = apps::make_shards(chaos.env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(chaos.env, "wc_twice", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  apps::wordcount::run_hamr(chaos.env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
  apps::wordcount::run_hamr(chaos.env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(chaos.env), expected);
}

TEST(Chaos, WordCountSurvivesChaosWithEightWorkerStealing) {
  // Same byte-identical guarantee with 8 workers per node: 8 workers
  // processing one node's bins in overlap must not change recovery semantics
  // or output. (CI runs this under TSan via the chaos label.)
  fault::FaultInjector injector(fault::FaultPlan::chaos(/*seed=*/29,
                                                        /*msg_rate=*/0.05,
                                                        /*crash_rate=*/0.02));
  auto env = apps::BenchEnv::make(
      cluster::ClusterConfig::fast(/*nodes=*/4, /*threads=*/8),
      ChaosEnv::with_injector(engine::EngineConfig::fast(), &injector));
  env.cluster->set_fault_injector(&injector);

  gen::TextSpec spec;
  spec.total_bytes = 96 * 1024;
  auto shards =
      apps::make_shards(env.nodes(), [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(env, "wc_chaos8", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  auto info = apps::wordcount::run_hamr(env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(env), expected);
  EXPECT_GT(info.engine_result.faults_injected, 0u);
}

TEST(ChaosStream, WindowedWordCountStaysByteIdenticalUnderChaos) {
  // Event-time streaming exactly-once probe: a bounded generator replay
  // through source -> windows -> sink, run clean and under a 5% message
  // chaos + 2% task-crash plan. The WindowFileSink concatenates duplicate
  // emissions with ';', so ANY window emitted twice (or a lost one) changes
  // the output bytes - the two runs must match exactly.
  stream::GeneratorConfig gen;
  gen.total_events = 2500;
  gen.period_us = 100;
  gen.jitter_us = 400;  // out-of-order arrivals within each source
  gen.seed = 5;
  const stream::WindowSpec window{.size_us = 20'000, .slide_us = 0};

  auto pipeline = [&] {
    stream::StreamPipeline p;
    p.source = [gen] { return std::make_unique<stream::GeneratorSource>(gen); };
    p.source_options.window = window;
    p.source_options.events_per_chunk = 128;
    p.source_options.punctuate_every = 256;
    p.fold = [](std::string_view, std::string_view value, std::string& acc) {
      const uint64_t add = std::stoull(std::string(value));
      const uint64_t have = acc.empty() ? 0 : std::stoull(acc);
      acc = std::to_string(have + add);
    };
    p.output_dir = "chaos_stream/out";
    return p;
  };
  auto run = [&](apps::BenchEnv& env) {
    service::JobWork work =
        stream::StreamService::make_work(pipeline(), env.nodes(), nullptr);
    env.engine->run(work.graph, work.inputs);
    return stream::WindowFileSink::read_all(*env.cluster, "chaos_stream/out");
  };

  apps::BenchEnv clean = apps::BenchEnv::fast(4);
  const std::string expected = run(clean);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(expected.find(';'), std::string::npos);

  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/23, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.02));
  EXPECT_EQ(run(chaos.env), expected);
  EXPECT_GT(chaos.injector.stats().total(), 0u);
}

TEST(ChaosSort, DistributedSortStaysByteIdenticalUnderChaos) {
  // TeraSort-class probe: records are opaque bytes sorted lexicographically,
  // so a single duplicated or lost record changes the output bytes. Run the
  // full sampling + range-partitioned shuffle + spill/merge pipeline under
  // 5% frame drops and 2% task crashes; the concatenated per-node partitions
  // must equal a single-threaded std::sort of the same dataset exactly.
  fault::FaultPlan plan;
  plan.seed = 37;
  plan.default_link.drop = 0.05;
  plan.task_crash_rate = 0.02;
  plan.resend_after = millis(20);  // recover dropped frames quickly
  ChaosEnv chaos(plan);

  Rng rng(67);
  std::vector<std::string> data;
  data.reserve(8000);
  for (size_t i = 0; i < 8000; ++i) {
    std::string rec;
    const size_t len = 8 + rng.next_below(56);
    rec.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      rec.push_back(static_cast<char>(rng.next_below(256)));
    }
    data.push_back(std::move(rec));
  }
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());

  std::vector<std::vector<std::string>> shards(chaos.env.nodes());
  for (size_t i = 0; i < data.size(); ++i) {
    shards[i % shards.size()].push_back(data[i]);
  }
  std::vector<std::string> framed;
  for (const auto& s : shards) framed.push_back(sort::frame_records(s));

  sort::SortSpec spec;
  spec.memory_budget_bytes = 64 * 1024;  // force spill runs under chaos too
  sort::stage_sort_input(*chaos.env.cluster, spec, framed);
  sort::run_distributed_sort(*chaos.env.engine, spec);

  EXPECT_EQ(sort::collect_sorted(*chaos.env.cluster, spec), expected);
  EXPECT_GT(chaos.injector.stats().total(), 0u);
  EXPECT_GT(chaos.env.cluster->total_counter("sort.spill_runs"), 0u);
}

TEST(ChaosQuery, JoinGroupByQueryStaysByteIdenticalUnderChaos) {
  // Differential probe for the relational layer: a join + group-by query
  // (two shuffle stages, sender-side combining on the fold) run under the
  // standard 5% message chaos + 2% task-crash plan must produce EXACTLY the
  // reference evaluator's rows. Aggregate states are commutative +
  // associative merges (DESIGN.md §13), so retried tasks and pre-combined
  // duplicates may reorder the fold but never change the bytes.
  ChaosEnv chaos(fault::FaultPlan::chaos(/*seed=*/31, /*msg_rate=*/0.05,
                                         /*crash_rate=*/0.02));

  query::GeneratedQuery q = query::generate_query(query::Family::kJoinGroupBy,
                                                  /*seed=*/7);
  const query::Schema schema = query::output_schema(*q.plan, q.catalog);
  const auto expected =
      query::canonical(schema, query::reference_eval(*q.plan, q.catalog));
  ASSERT_FALSE(expected.empty());

  const auto got = query::canonical(
      schema,
      query::run_on_engine(*chaos.env.engine, *q.plan, q.catalog, "chaos_q"));
  EXPECT_EQ(got, expected);
  EXPECT_GT(chaos.injector.stats().total(), 0u);
}

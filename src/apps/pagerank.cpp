#include "apps/pagerank.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "cache/scan_loader.h"
#include "engine/loaders.h"

namespace hamr::apps::pagerank {

namespace {

constexpr double kDamping = 0.85;

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double parse_double(std::string_view s) {
  double v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

std::string rank_key(std::string_view page) { return "pr/rank/" + std::string(page); }
std::string adj_key(std::string_view page) { return "pr/adj/" + std::string(page); }

// Contribution payloads cross the shuffle as raw 8-byte doubles: lossless
// (unlike any decimal round-trip risk), ~60% smaller than "%.17g" text, and
// MergeRed decodes with a memcpy instead of a from_chars per record. All
// iteration paths (cold build, kv EdgeLoader, cached ContribMap) share this
// encoding, so their bins are byte-identical too.
std::string_view encode_contrib(double v, char (&buf)[8]) {
  std::memcpy(buf, &v, sizeof(v));
  return {buf, sizeof(v)};
}

double decode_contrib(std::string_view s) {
  double v = 0;
  std::memcpy(&v, s.data(), std::min(sizeof(v), s.size()));
  return v;
}

double local_rank(engine::Context& ctx, std::string_view page, double initial) {
  auto value = ctx.kv().local(ctx.node()).get(rank_key(page));
  return value.ok() ? parse_double(value.value()) : initial;
}

// --- HAMR flowlets (Alg. 2) ---

// (offset, "src dst") -> (src, dst); re-keys edges for the hash join.
class EdgeMap : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    const size_t space = record.value.find(' ');
    if (space == std::string_view::npos) return;
    ctx.emit(0, record.value.substr(0, space), record.value.substr(space + 1));
  }
};

// Iteration 1: store each src's dst list into node-shared memory, then send
// rank/outdegree to every dst. With a DatasetWriter, additionally publishes
// (src, adj) to the cross-job cache at this node - the reduce ran here
// because src hash-partitions here, so the dataset comes out key-partitioned
// and later iterations can scan it shuffle-free (aligned_edge).
class HashJoinRed : public engine::ReduceFlowlet {
 public:
  explicit HashJoinRed(uint64_t num_pages,
                       std::shared_ptr<cache::DatasetWriter> writer = nullptr)
      : initial_(1.0 / num_pages), writer_(std::move(writer)) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    // Canonical dst order: shuffle arrival order varies run to run, and the
    // adjacency string doubles as the cached dataset's record payload.
    std::vector<std::string_view> dsts(values.begin(), values.end());
    std::sort(dsts.begin(), dsts.end());
    std::string adj;
    for (std::string_view dst : dsts) {
      if (!adj.empty()) adj.push_back(' ');
      adj.append(dst);
    }
    // The adjacency's home is either the node-shared KV store (in-memory
    // iteration path, re-read by EdgeLoader) or the cross-job dataset cache
    // (cached chain, re-scanned by CachedScanLoader) - never both.
    if (writer_) {
      writer_->append(ctx.node(), key, adj);
    } else {
      ctx.kv().local(ctx.node()).put(adj_key(key), adj);
    }
    // Current rank (initial on the first iteration; the stored value when the
    // reload-each-iteration ablation reruns this phase).
    const double rank = local_rank(ctx, key, initial_);
    char cbuf[8];
    const std::string_view contrib =
        encode_contrib(rank / static_cast<double>(dsts.size()), cbuf);
    for (std::string_view dst : dsts) ctx.emit(0, dst, contrib);
  }

 private:
  double initial_;
  std::shared_ptr<cache::DatasetWriter> writer_;
};

// Iterations >= 2: replay contributions straight from the in-memory
// adjacency lists (the paper's EdgeLoader - "load its dstPage list from
// memory"). One synthetic split per node.
class EdgeLoader : public engine::LoaderFlowlet {
 public:
  explicit EdgeLoader(uint64_t num_pages, uint64_t srcs_per_chunk = 256)
      : initial_(1.0 / num_pages), per_chunk_(srcs_per_chunk) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override {
    (void)split;
    if (*cursor == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!snapshotted_) {
        ctx.kv().local(ctx.node()).for_each_prefix(
            "pr/adj/", [this](const std::string& key, const std::string& value) {
              entries_.emplace_back(key.substr(strlen("pr/adj/")), value);
            });
        snapshotted_ = true;
      }
    }
    uint64_t i = *cursor;
    const uint64_t end = std::min<uint64_t>(i + per_chunk_, entries_.size());
    for (; i < end; ++i) {
      const auto& [src, adj] = entries_[i];
      const auto dsts = tokenize(adj);
      if (dsts.empty()) continue;
      const double rank = local_rank(ctx, src, initial_);
      char cbuf[8];
      const std::string_view contrib =
          encode_contrib(rank / static_cast<double>(dsts.size()), cbuf);
      for (std::string_view dst : dsts) ctx.emit(0, dst, contrib);
    }
    *cursor = i;
    return i < entries_.size();
  }

 private:
  double initial_;
  uint64_t per_chunk_;
  std::mutex mu_;
  bool snapshotted_ = false;
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Sums contributions, updates the in-memory rank, reports |delta|.
class MergeRed : public engine::ReduceFlowlet {
 public:
  explicit MergeRed(uint64_t num_pages)
      : initial_(1.0 / num_pages), base_(0.15 / num_pages) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    // Canonical summation order: floating-point addition is not associative,
    // and shuffle arrival order varies with scheduling (and with which
    // loader - file, kv, or dataset cache - produced the contributions).
    // Parsing first and sorting the doubles numerically fixes the order
    // (ties are bit-identical values, interchangeable under +), so every
    // path's ranks come out byte-identical - and double compares are far
    // cheaper than string compares.
    std::vector<double> sorted;
    sorted.reserve(values.size());
    for (std::string_view v : values) sorted.push_back(decode_contrib(v));
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (double v : sorted) sum += v;
    const double updated = base_ + kDamping * sum;
    const double old = local_rank(ctx, key, initial_);
    ctx.kv().local(ctx.node()).put(rank_key(key), fmt_double(updated));
    ctx.emit(0, key, fmt_double(std::fabs(updated - old)));
  }

 private:
  double initial_;
  double base_;
};

// Cached iterations: expands one resident (src, "dst dst ...") record into
// per-dst contributions. Fed by a CachedScanLoader over "pagerank/adj"
// through a local edge - the dataset is key-partitioned, so src's rank (and
// this map) are already on the right node and nothing crosses the network
// until the contributions shuffle to MergeRed.
class ContribMap : public engine::MapFlowlet {
 public:
  explicit ContribMap(uint64_t num_pages) : initial_(1.0 / num_pages) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    const auto dsts = tokenize(record.value);
    if (dsts.empty()) return;
    const double rank = local_rank(ctx, record.key, initial_);
    char cbuf[8];
    const std::string_view contrib =
        encode_contrib(rank / static_cast<double>(dsts.size()), cbuf);
    for (std::string_view dst : dsts) ctx.emit(0, dst, contrib);
  }

 private:
  double initial_;
};

// Tracks the node-local max delta for the driver's convergence check.
class ContMap : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    (void)ctx;
    const double delta = parse_double(record.value);
    std::lock_guard<std::mutex> lock(mu_);
    max_delta_ = std::max(max_delta_, delta);
  }

  void finish(engine::Context& ctx) override {
    ctx.local_store().write_file(
        "out/pagerank/delta_node" + std::to_string(ctx.node()),
        "max\t" + fmt_double(max_delta_) + "\n");
  }

 private:
  std::mutex mu_;
  double max_delta_ = 0;
};

// --- baseline jobs ---

// Job 1 map: tags edges and rank lines for the src-keyed join.
class JoinMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    const size_t tab = value.find('\t');
    if (tab != std::string_view::npos) {
      ctx.emit(value.substr(0, tab), "R" + std::string(value.substr(tab + 1)));
      return;
    }
    const size_t space = value.find(' ');
    if (space == std::string_view::npos) return;
    ctx.emit(value.substr(0, space), "D" + std::string(value.substr(space + 1)));
  }
};

// Job 1 reduce: contribution fan-out.
class JoinReducer : public mapreduce::Reducer {
 public:
  explicit JoinReducer(uint64_t num_pages) : initial_(1.0 / num_pages) {}

  void reduce(std::string_view /*key*/, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    double rank = initial_;
    std::vector<std::string_view> dsts;
    for (std::string_view v : values) {
      if (v.empty()) continue;
      if (v[0] == 'R') {
        rank = parse_double(v.substr(1));
      } else {
        dsts.push_back(v.substr(1));
      }
    }
    if (dsts.empty()) return;
    const std::string contrib = fmt_double(rank / static_cast<double>(dsts.size()));
    for (std::string_view dst : dsts) ctx.emit(dst, contrib);
  }

 private:
  double initial_;
};

// Job 2 map: parse "dst\tcontrib" output lines of job 1.
class AggMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    const size_t tab = value.find('\t');
    if (tab == std::string_view::npos) return;
    ctx.emit(value.substr(0, tab), value.substr(tab + 1));
  }
};

// Job 2 reduce: new rank.
class AggReducer : public mapreduce::Reducer {
 public:
  explicit AggReducer(uint64_t num_pages) : base_(0.15 / num_pages) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    double sum = 0;
    for (std::string_view v : values) sum += parse_double(v);
    ctx.emit(key, fmt_double(base_ + kDamping * sum));
  }

 private:
  double base_;
};

// Appends the shared iteration tail to an IR chain: contributions shuffle
// into MergeRed, whose per-key |delta| records feed ContMap over a local
// edge (the driver maxes across all node files, so locality is free) - the
// fuse_maps pass collapses the pair into one reduce-side task body.
void append_merge_tail(ir::Graph& graph, ir::NodeId head, const Params& params) {
  const auto merge = graph.add_reduce(
      "MergeRed",
      [&params] { return std::make_unique<MergeRed>(params.num_pages); },
      {"page", "contrib8"}, {"page", "delta"});
  graph.node(merge).effect = true;  // stores updated ranks in the shared KV
  const auto cont = graph.add_map(
      "ContMap", [] { return std::make_unique<ContMap>(); }, {"page", "delta"});
  graph.node(cont).effect = true;  // writes out/pagerank/delta_node<id>
  graph.node(cont).fusible = true;
  graph.connect(head, merge);
  graph.connect(merge, cont, engine::local_edge());
}

double collect_max_delta(BenchEnv& env) {
  double max_delta = 0;
  for (const auto& [key, value] :
       collect_local_kv(*env.cluster, "out/pagerank/delta_node")) {
    (void)key;
    max_delta = std::max(max_delta, parse_double(value));
  }
  return max_delta;
}

}  // namespace

void clear_pagerank_state(BenchEnv& env) {
  env.engine->kv().clear_namespace("pr/");
}

double max_delta(BenchEnv& env) { return collect_max_delta(env); }

RunInfo run_hamr(BenchEnv& env, const StagedInput& input, const Params& params,
                 bool reload_each_iteration) {
  clear_pagerank_state(env);
  RunInfo run;
  Stopwatch watch;
  for (uint32_t iter = 0; iter < params.iterations; ++iter) {
    Stopwatch iter_watch;
    run.engine_results.push_back(
        run_hamr_iteration(env, input, params, iter, reload_each_iteration));
    run.iteration_seconds.push_back(iter_watch.elapsed_seconds());
    run.max_delta = collect_max_delta(env);
  }
  run.seconds = watch.elapsed_seconds();
  return run;
}

RunInfo run_hamr_cached(BenchEnv& env, const StagedInput& input,
                        const Params& params) {
  clear_pagerank_state(env);
  RunInfo run;
  Stopwatch watch;
  for (uint32_t iter = 0; iter < params.iterations; ++iter) {
    Stopwatch iter_watch;
    run.engine_results.push_back(
        run_hamr_cached_iteration(env, input, params, iter));
    run.iteration_seconds.push_back(iter_watch.elapsed_seconds());
    run.max_delta = collect_max_delta(env);
  }
  run.seconds = watch.elapsed_seconds();
  return run;
}

engine::JobResult run_hamr_cached_iteration(BenchEnv& env,
                                            const StagedInput& input,
                                            const Params& params,
                                            uint32_t iteration) {
  static constexpr const char* kAdjDataset = "pagerank/adj";
  cache::DatasetCache& dcache = *env.dataset_cache;
  // Iteration 0 always rebuilds (fresh chain); later iterations pin the
  // published adjacency. A miss here - LRU eviction under budget pressure or
  // a mid-chain invalidation - falls through to the cold build transparently.
  std::shared_ptr<const cache::Dataset> adj =
      iteration == 0 ? nullptr : dcache.pin(kAdjDataset);

  ir::Graph graph;
  ir::NodeId head;
  std::shared_ptr<cache::DatasetWriter> writer;
  if (!adj) {
    // Cold path: parse the edge file, build adjacency, and republish it for
    // the rest of the chain. HashJoinRed reads the *current* stored rank, so
    // a mid-chain rebuild resumes the iteration sequence exactly.
    cache::PublishOptions options;
    options.key_partitioned = true;
    writer = dcache.begin(kAdjDataset, options);
    const auto loader =
        add_text_source(graph, "EdgeFileLoader", input, {"", "edge-line"});
    const auto parse = graph.add_map(
        "EdgeMap", [] { return std::make_unique<EdgeMap>(); },
        {"", "edge-line"}, {"page", "page"});
    graph.node(parse).fusible = true;
    const auto join = graph.add_reduce(
        "HashJoinRed",
        [&params, writer] {
          return std::make_unique<HashJoinRed>(params.num_pages, writer);
        },
        {"page", "page"}, {"page", "contrib8"});
    graph.node(join).effect = true;  // publishes adjacency to the cache
    graph.connect(loader, parse, engine::local_edge());
    graph.connect(parse, join);
    head = join;
  } else {
    const auto loader = graph.add_source(
        "AdjCacheScan",
        [adj] { return std::make_unique<cache::CachedScanLoader>(adj); },
        {"page", "adj"});
    graph.node(loader).splits = cache::scan_splits(*adj);
    const auto contrib = graph.add_map(
        "ContribMap",
        [&params] { return std::make_unique<ContribMap>(params.num_pages); },
        {"page", "adj"}, {"page", "contrib8"});
    graph.node(contrib).fusible = true;
    // Key-partitioned dataset + per-shard placement => shuffle-free edge,
    // which is exactly what lets fuse_maps collapse scan+contrib.
    graph.connect(loader, contrib, cache::aligned_edge(*adj));
    head = contrib;
  }
  append_merge_tail(graph, head, params);

  engine::JobResult result = run_ir(env, std::move(graph));
  // Publish only after the job ran to completion; a run that threw leaves
  // the writer uncommitted and the cache untouched.
  if (writer) writer->commit();
  return result;
}

engine::JobResult run_hamr_iteration(BenchEnv& env, const StagedInput& input,
                                     const Params& params, uint32_t iteration,
                                     bool reload) {
  const uint32_t iter = iteration;
  ir::Graph graph;
  ir::NodeId head;
  if (iter == 0 || reload) {
    const auto loader =
        add_text_source(graph, "EdgeFileLoader", input, {"", "edge-line"});
    const auto parse = graph.add_map(
        "EdgeMap", [] { return std::make_unique<EdgeMap>(); },
        {"", "edge-line"}, {"page", "page"});
    graph.node(parse).fusible = true;
    const auto join = graph.add_reduce(
        "HashJoinRed",
        [&params] { return std::make_unique<HashJoinRed>(params.num_pages); },
        {"page", "page"}, {"page", "contrib8"});
    graph.node(join).effect = true;  // stores adjacency in the shared KV
    graph.connect(loader, parse, engine::local_edge());
    graph.connect(parse, join);
    head = join;
  } else {
    const auto loader = graph.add_source(
        "EdgeLoader",
        [&params] { return std::make_unique<EdgeLoader>(params.num_pages); },
        {"page", "contrib8"});
    for (uint32_t n = 0; n < env.nodes(); ++n) {
      engine::InputSplit split;
      split.path = "pr/adj";
      split.preferred_node = n;
      graph.node(loader).splits.push_back(std::move(split));
    }
    head = loader;
  }
  append_merge_tail(graph, head, params);
  return run_ir(env, std::move(graph));
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input, const Params& params) {
  RunInfo run;
  Stopwatch watch;

  // Initial rank table (the evaluation's setup step; not counted in paper
  // time either, but cheap - one DFS file).
  {
    std::string ranks;
    const std::string initial = fmt_double(1.0 / params.num_pages);
    for (uint64_t p = 0; p < params.num_pages; ++p) {
      ranks += std::to_string(p);
      ranks.push_back('\t');
      ranks += initial;
      ranks.push_back('\n');
    }
    env.dfs->write(0, "/pr/ranks_it0/part-r-0", ranks).ExpectOk();
  }

  for (uint32_t iter = 1; iter <= params.iterations; ++iter) {
    mapreduce::MrJobConfig job1 = env.mr_defaults;
    job1.name = "pr_join_it" + std::to_string(iter);
    std::vector<std::string> job1_inputs =
        env.dfs->list("/pr/ranks_it" + std::to_string(iter - 1) + "/");
    job1_inputs.push_back(input.dfs_path);
    run.baseline_results.push_back(env.mr->run(
        job1, job1_inputs, "/pr/contrib_it" + std::to_string(iter),
        [] { return std::make_unique<JoinMapper>(); },
        [&params] { return std::make_unique<JoinReducer>(params.num_pages); }));

    mapreduce::MrJobConfig job2 = env.mr_defaults;
    job2.name = "pr_agg_it" + std::to_string(iter);
    run.baseline_results.push_back(env.mr->run(
        job2, env.dfs->list("/pr/contrib_it" + std::to_string(iter) + "/"),
        "/pr/ranks_it" + std::to_string(iter),
        [] { return std::make_unique<AggMapper>(); },
        [&params] { return std::make_unique<AggReducer>(params.num_pages); }));
  }
  run.seconds = watch.elapsed_seconds();
  return run;
}

std::map<uint64_t, double> hamr_ranks(BenchEnv& env, const Params& params) {
  std::map<uint64_t, double> ranks;
  for (uint64_t p = 0; p < params.num_pages; ++p) ranks[p] = 1.0 / params.num_pages;
  for (uint32_t n = 0; n < env.nodes(); ++n) {
    env.engine->kv().local(n).for_each_prefix(
        "pr/rank/", [&](const std::string& key, const std::string& value) {
          uint64_t page = 0;
          std::from_chars(key.data() + strlen("pr/rank/"),
                          key.data() + key.size(), page);
          ranks[page] = parse_double(value);
        });
  }
  return ranks;
}

std::map<uint64_t, double> baseline_ranks(BenchEnv& env, const Params& params,
                                          uint32_t iterations) {
  std::map<uint64_t, double> ranks;
  for (uint64_t p = 0; p < params.num_pages; ++p) ranks[p] = 1.0 / params.num_pages;
  for (const auto& [key, value] :
       collect_dfs_kv(env, "/pr/ranks_it" + std::to_string(iterations))) {
    uint64_t page = 0;
    std::from_chars(key.data(), key.data() + key.size(), page);
    ranks[page] = parse_double(value);
  }
  return ranks;
}

std::map<uint64_t, double> reference(const std::vector<std::string>& shards,
                                     const Params& params) {
  // Adjacency.
  std::map<uint64_t, std::vector<uint64_t>> adj;
  for (const std::string& shard : shards) {
    size_t pos = 0;
    while (pos < shard.size()) {
      size_t eol = shard.find('\n', pos);
      if (eol == std::string::npos) eol = shard.size();
      const std::string_view line = std::string_view(shard).substr(pos, eol - pos);
      const size_t space = line.find(' ');
      if (space != std::string_view::npos) {
        uint64_t src = 0, dst = 0;
        std::from_chars(line.data(), line.data() + space, src);
        std::from_chars(line.data() + space + 1, line.data() + line.size(), dst);
        adj[src].push_back(dst);
      }
      pos = eol + 1;
    }
  }

  std::map<uint64_t, double> ranks;
  for (uint64_t p = 0; p < params.num_pages; ++p) ranks[p] = 1.0 / params.num_pages;
  const double base = 0.15 / params.num_pages;
  for (uint32_t iter = 0; iter < params.iterations; ++iter) {
    std::map<uint64_t, double> sums;
    for (const auto& [src, dsts] : adj) {
      const double contrib = ranks[src] / static_cast<double>(dsts.size());
      for (uint64_t dst : dsts) sums[dst] += contrib;
    }
    for (const auto& [dst, sum] : sums) ranks[dst] = base + kDamping * sum;
  }
  return ranks;
}

}  // namespace hamr::apps::pagerank

#include "apps/kcliques.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>
#include <mutex>

namespace hamr::apps::kcliques {

namespace {

// Candidate record value: "<clique csv>|<candidate csv>".
std::string encode_candidate(std::string_view clique, const std::vector<uint64_t>& set) {
  std::string out(clique);
  out.push_back('|');
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(set[i]);
  }
  return out;
}

std::vector<uint64_t> parse_csv(std::string_view csv) {
  std::vector<uint64_t> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    uint64_t v = 0;
    std::from_chars(csv.data() + pos, csv.data() + comma, v);
    out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

// Sorted-vector intersection (both ascending).
std::vector<uint64_t> intersect(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::string adj_kv_key(std::string_view vertex) {
  return "kc/adj/" + std::string(vertex);
}

// Fetches the upward adjacency of `vertex` from this node's shard (records
// are routed by vertex key, so it is always local).
std::vector<uint64_t> local_adjacency(engine::Context& ctx, std::string_view vertex) {
  auto value = ctx.kv().local(ctx.node()).get(adj_kv_key(vertex));
  if (!value.ok()) return {};
  return parse_csv(value.value());
}

// --- HAMR flowlets (Alg. 3) ---

// (offset, "a b") -> (a, b), a < b by construction of the generator.
class EdgeKeyMap : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    const size_t space = record.value.find(' ');
    if (space == std::string_view::npos) return;
    ctx.emit(0, record.value.substr(0, space), record.value.substr(space + 1));
  }
};

// Stores deduplicated, sorted upward adjacency into node-shared memory.
class GraphBuilder : public engine::ReduceFlowlet {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    std::vector<uint64_t> nbrs;
    nbrs.reserve(values.size());
    for (std::string_view v : values) {
      uint64_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      nbrs.push_back(n);
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    std::string csv;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i > 0) csv.push_back(',');
      csv += std::to_string(nbrs[i]);
    }
    ctx.kv().local(ctx.node()).put(adj_kv_key(key), csv);
  }
};

// Fires after GraphBuilder completes everywhere: streams 2-clique candidates
// (v,w) keyed by w with candidate set adj+(v).
class TwoCliquesGen : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair&, engine::Context&) override {}

  void finish(engine::Context& ctx) override {
    ctx.kv().local(ctx.node()).for_each_prefix(
        "kc/adj/", [&](const std::string& key, const std::string& value) {
          const std::string v = key.substr(strlen("kc/adj/"));
          const std::vector<uint64_t> adj = parse_csv(value);
          for (uint64_t w : adj) {
            ctx.emit(0, std::to_string(w),
                     encode_candidate(v + "," + std::to_string(w), adj));
          }
        });
  }
};

// Extends (I-1)-cliques to I-cliques; terminal instances write output lines.
class CliqueVerify : public engine::MapFlowlet {
 public:
  CliqueVerify(uint32_t level, uint32_t k) : level_(level), k_(k) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    const std::string_view value = record.value;
    const size_t bar = value.find('|');
    if (bar == std::string_view::npos) return;
    const std::string_view clique = value.substr(0, bar);
    const std::vector<uint64_t> set = parse_csv(value.substr(bar + 1));
    const std::vector<uint64_t> adj = local_adjacency(ctx, record.key);
    const std::vector<uint64_t> extended = intersect(set, adj);
    for (uint64_t x : extended) {
      const std::string new_clique = std::string(clique) + "," + std::to_string(x);
      if (level_ == k_) {
        std::lock_guard<std::mutex> lock(mu_);
        out_ += new_clique;
        out_.push_back('\n');
      } else {
        ctx.emit(0, std::to_string(x), encode_candidate(new_clique, extended));
      }
    }
  }

  void finish(engine::Context& ctx) override {
    if (level_ != k_) return;
    std::lock_guard<std::mutex> lock(mu_);
    ctx.local_store().write_file(
        "out/kcliques/node" + std::to_string(ctx.node()), out_);
  }

 private:
  uint32_t level_;
  uint32_t k_;
  std::mutex mu_;
  std::string out_;
};

// --- baseline jobs ---

// Job 0 reduce: adjacency + 2-clique candidates ("w\tv,w|set" lines).
class AdjReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    std::vector<uint64_t> nbrs;
    for (std::string_view v : values) {
      uint64_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      nbrs.push_back(n);
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    const std::string v(key);
    for (uint64_t w : nbrs) {
      ctx.emit(std::to_string(w),
               encode_candidate(v + "," + std::to_string(w), nbrs));
    }
  }
};

class EdgeSrcMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    const size_t space = value.find(' ');
    if (space == std::string_view::npos) return;
    ctx.emit(value.substr(0, space), value.substr(space + 1));
  }
};

// Extension job map: tag edges ("E<dst>") and candidates ("C<payload>").
class ExtendMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    const size_t tab = value.find('\t');
    if (tab != std::string_view::npos) {
      // Candidate line from the previous job: "w\tclique|set".
      ctx.emit(value.substr(0, tab), "C" + std::string(value.substr(tab + 1)));
      return;
    }
    const size_t space = value.find(' ');
    if (space == std::string_view::npos) return;
    // Upward adjacency: the edge belongs to its smaller endpoint.
    ctx.emit(value.substr(0, space), "E" + std::string(value.substr(space + 1)));
  }
};

// Extension job reduce: rebuild adj+(w) from E records, extend C records.
class ExtendReducer : public mapreduce::Reducer {
 public:
  ExtendReducer(uint32_t level, uint32_t k) : level_(level), k_(k) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    (void)key;
    std::vector<uint64_t> adj;
    std::vector<std::string_view> candidates;
    for (std::string_view v : values) {
      if (v.empty()) continue;
      if (v[0] == 'E') {
        uint64_t n = 0;
        std::from_chars(v.data() + 1, v.data() + v.size(), n);
        adj.push_back(n);
      } else {
        candidates.push_back(v.substr(1));
      }
    }
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    for (std::string_view payload : candidates) {
      const size_t bar = payload.find('|');
      if (bar == std::string_view::npos) continue;
      const std::string_view clique = payload.substr(0, bar);
      const std::vector<uint64_t> set = parse_csv(payload.substr(bar + 1));
      const std::vector<uint64_t> extended = intersect(set, adj);
      for (uint64_t x : extended) {
        const std::string new_clique = std::string(clique) + "," + std::to_string(x);
        if (level_ == k_) {
          ctx.emit(new_clique, "1");
        } else {
          ctx.emit(std::to_string(x), encode_candidate(new_clique, extended));
        }
      }
    }
  }

 private:
  uint32_t level_;
  uint32_t k_;
};

}  // namespace

RunInfo run_hamr(BenchEnv& env, const StagedInput& input, const Params& params) {
  env.engine->kv().clear_namespace("kc/");
  ir::Graph graph;
  const auto loader = add_text_source(graph, "KCliquesLoader", input);
  const auto keymap =
      graph.add_map("EdgeKeyMap", [] { return std::make_unique<EdgeKeyMap>(); });
  const auto builder = graph.add_reduce(
      "GraphBuilder", [] { return std::make_unique<GraphBuilder>(); });
  graph.node(builder).effect = true;  // stores adjacency in the shared KV
  const auto gen2 = graph.add_map(
      "TwoCliquesGen", [] { return std::make_unique<TwoCliquesGen>(); });
  graph.connect(loader, keymap, engine::local_edge());
  graph.connect(keymap, builder);
  graph.connect(builder, gen2);
  ir::NodeId prev = gen2;
  for (uint32_t level = 3; level <= params.k; ++level) {
    const auto verify = graph.add_map(
        "Verify" + std::to_string(level), [level, &params] {
          return std::make_unique<CliqueVerify>(level, params.k);
        });
    graph.connect(prev, verify);
    prev = verify;
  }
  graph.node(prev).effect = true;  // the last level writes out/kcliques/

  RunInfo run;
  run.engine_result = run_ir(env, std::move(graph));
  run.seconds = run.engine_result.wall_seconds;
  return run;
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input, const Params& params) {
  RunInfo run;
  Stopwatch watch;

  mapreduce::MrJobConfig job0 = env.mr_defaults;
  job0.name = "kc_2cliques";
  run.baseline_results.push_back(env.mr->run(
      job0, {input.dfs_path}, "/kc/cliques2",
      [] { return std::make_unique<EdgeSrcMapper>(); },
      [] { return std::make_unique<AdjReducer>(); }));

  for (uint32_t level = 3; level <= params.k; ++level) {
    mapreduce::MrJobConfig job = env.mr_defaults;
    job.name = "kc_extend" + std::to_string(level);
    // Re-reads the full edge file every job (adjacency is rebuilt at the
    // reducers), plus the previous level's candidates.
    std::vector<std::string> inputs =
        env.dfs->list("/kc/cliques" + std::to_string(level - 1) + "/");
    inputs.push_back(input.dfs_path);
    const std::string out = level == params.k
                                ? "/out/kcliques"
                                : "/kc/cliques" + std::to_string(level);
    run.baseline_results.push_back(env.mr->run(
        job, inputs, out, [] { return std::make_unique<ExtendMapper>(); },
        [level, &params] {
          return std::make_unique<ExtendReducer>(level, params.k);
        }));
  }
  run.seconds = watch.elapsed_seconds();
  return run;
}

std::set<std::string> hamr_cliques(BenchEnv& env) {
  std::set<std::string> cliques;
  for (uint32_t n = 0; n < env.nodes(); ++n) {
    for (const std::string& path : env.cluster->node(n).store().list("out/kcliques/")) {
      auto data = env.cluster->node(n).store().read_file(path);
      data.status().ExpectOk();
      const std::string& text = *data.value();
      size_t pos = 0;
      while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        if (eol > pos) cliques.insert(text.substr(pos, eol - pos));
        pos = eol + 1;
      }
    }
  }
  return cliques;
}

std::set<std::string> baseline_cliques(BenchEnv& env) {
  std::set<std::string> cliques;
  for (const auto& [key, value] : collect_dfs_kv(env, "/out/kcliques")) {
    (void)value;
    cliques.insert(key);
  }
  return cliques;
}

std::set<std::string> reference(const std::vector<std::string>& shards,
                                const Params& params) {
  // Upward adjacency.
  std::map<uint64_t, std::vector<uint64_t>> adj;
  for (const std::string& shard : shards) {
    size_t pos = 0;
    while (pos < shard.size()) {
      size_t eol = shard.find('\n', pos);
      if (eol == std::string::npos) eol = shard.size();
      const std::string_view line = std::string_view(shard).substr(pos, eol - pos);
      const size_t space = line.find(' ');
      if (space != std::string_view::npos) {
        uint64_t a = 0, b = 0;
        std::from_chars(line.data(), line.data() + space, a);
        std::from_chars(line.data() + space + 1, line.data() + line.size(), b);
        if (a != b) adj[std::min(a, b)].push_back(std::max(a, b));
      }
      pos = eol + 1;
    }
  }
  for (auto& [v, nbrs] : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  auto adj_of = [&](uint64_t v) -> const std::vector<uint64_t>& {
    static const std::vector<uint64_t> empty;
    auto it = adj.find(v);
    return it == adj.end() ? empty : it->second;
  };

  // Depth-first extension, same candidate-set method.
  std::set<std::string> cliques;
  std::function<void(std::string, uint64_t, const std::vector<uint64_t>&, uint32_t)>
      extend = [&](std::string clique, uint64_t last,
                   const std::vector<uint64_t>& set, uint32_t size) {
        if (size == params.k) {
          cliques.insert(clique);
          return;
        }
        const std::vector<uint64_t> ext = intersect(set, adj_of(last));
        for (uint64_t x : ext) {
          extend(clique + "," + std::to_string(x), x, ext, size + 1);
        }
      };
  for (const auto& [v, nbrs] : adj) {
    for (uint64_t w : nbrs) {
      extend(std::to_string(v) + "," + std::to_string(w), w, nbrs, 2);
    }
  }
  return cliques;
}

}  // namespace hamr::apps::kcliques

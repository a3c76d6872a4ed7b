#include "apps/kmeans.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "apps/movie_vectors.h"

namespace hamr::apps::kmeans {

namespace {

// Candidate record shipped to NewCentroidGen: tiny, instead of the movie
// vector itself (locality awareness, §3.3).
struct Candidate {
  double sim = -1;
  uint32_t node = 0;
  uint64_t offset = 0;
  std::string id;  // movie id, tie-breaker
};

std::string encode_candidate(double sim, uint32_t node, uint64_t offset,
                             std::string_view id) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g|%u|%llu|", sim, node,
                static_cast<unsigned long long>(offset));
  return std::string(buf) + std::string(id);
}

bool decode_candidate(std::string_view text, Candidate* out) {
  const size_t p1 = text.find('|');
  const size_t p2 = text.find('|', p1 + 1);
  const size_t p3 = text.find('|', p2 + 1);
  if (p1 == std::string_view::npos || p2 == std::string_view::npos ||
      p3 == std::string_view::npos) {
    return false;
  }
  out->sim = std::strtod(std::string(text.substr(0, p1)).c_str(), nullptr);
  std::from_chars(text.data() + p1 + 1, text.data() + p2, out->node);
  std::from_chars(text.data() + p2 + 1, text.data() + p3, out->offset);
  out->id = std::string(text.substr(p3 + 1));
  return true;
}

// Higher similarity wins; ties go to the lexicographically smaller movie id.
bool better_candidate(const Candidate& a, const Candidate& b) {
  if (a.sim != b.sim) return a.sim > b.sim;
  return a.id < b.id;
}

// Buffered append writer for the local per-cluster output files: batches
// appends so the modeled disk sees realistic request sizes.
class ClusterFileWriter {
 public:
  explicit ClusterFileWriter(std::string prefix) : prefix_(std::move(prefix)) {}

  void add(uint32_t cluster, std::string_view line, engine::Context& ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string& buf = buffers_[cluster];
    buf.append(line);
    buf.push_back('\n');
    if (buf.size() >= 256 * 1024) {
      ctx.local_store().append(path(cluster, ctx), buf);
      buf.clear();
    }
  }

  void flush(engine::Context& ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [cluster, buf] : buffers_) {
      if (!buf.empty()) ctx.local_store().append(path(cluster, ctx), buf);
      buf.clear();
    }
  }

 private:
  std::string path(uint32_t cluster, engine::Context& ctx) const {
    return prefix_ + "cluster" + std::to_string(cluster) + "_node" +
           std::to_string(ctx.node());
  }

  std::string prefix_;
  std::mutex mu_;
  std::map<uint32_t, std::string> buffers_;
};

// --- HAMR flowlets (Alg. 1) ---

class ClusterGen : public engine::MapFlowlet {
 public:
  explicit ClusterGen(std::vector<std::string> centroid_lines)
      : centroid_lines_(std::move(centroid_lines)),
        centroids_(movies::parse_centroids(centroid_lines_)),
        files_("out/kmeans/") {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    movies::MovieVector movie;
    if (!movies::parse_movie_vector(record.value, &movie)) return;
    double sim = 0;
    const uint32_t cluster = movies::assign_cluster(movie, centroids_, &sim);
    files_.add(cluster, record.value, ctx);  // stays on this node's disk
    uint64_t offset = 0;
    std::from_chars(record.key.data(), record.key.data() + record.key.size(), offset);
    ctx.emit(0, std::to_string(cluster),
             encode_candidate(sim, ctx.node(), offset, movie.id));
  }

  void finish(engine::Context& ctx) override { files_.flush(ctx); }

 private:
  std::vector<std::string> centroid_lines_;
  std::vector<movies::MovieVector> centroids_;
  ClusterFileWriter files_;
};

class NewCentroidGen : public engine::ReduceFlowlet {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    Candidate best;
    bool have = false;
    for (std::string_view v : values) {
      Candidate c;
      if (decode_candidate(v, &c) && (!have || better_candidate(c, best))) {
        best = std::move(c);
        have = true;
      }
    }
    if (have) {
      // Route the line offset back to the node whose disk holds the movie.
      ctx.emit_to_node(0, best.node, key, std::to_string(best.offset));
    }
  }
};

class NewCentroidInfoGet : public engine::MapFlowlet {
 public:
  explicit NewCentroidInfoGet(std::string input_path)
      : input_path_(std::move(input_path)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    uint64_t offset = 0;
    std::from_chars(record.value.data(), record.value.data() + record.value.size(),
                    offset);
    auto data = ctx.local_store().read_range(input_path_, offset, 64 * 1024);
    data.status().ExpectOk();
    std::string_view line = data.value();
    const size_t eol = line.find('\n');
    if (eol != std::string_view::npos) line = line.substr(0, eol);
    ctx.emit_broadcast(0, record.key, line);
  }

 private:
  std::string input_path_;
};

class CentroidUpdate : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    (void)ctx;
    std::lock_guard<std::mutex> lock(mu_);
    centroids_[std::string(record.key)] = std::string(record.value);
  }

  void finish(engine::Context& ctx) override {
    std::string out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [cluster, line] : centroids_) {
        out += cluster;
        out.push_back('\t');
        out += line;
        out.push_back('\n');
      }
    }
    ctx.local_store().write_file(
        "out/kmeans/newcentroids_node" + std::to_string(ctx.node()), out);
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::string> centroids_;
};

// Ablation A4 variant: no locality awareness - ships the whole line.
class ClusterGenFull : public engine::MapFlowlet {
 public:
  explicit ClusterGenFull(std::vector<std::string> centroid_lines)
      : centroid_lines_(std::move(centroid_lines)),
        centroids_(movies::parse_centroids(centroid_lines_)),
        files_("out/kmeans/") {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    movies::MovieVector movie;
    if (!movies::parse_movie_vector(record.value, &movie)) return;
    double sim = 0;
    const uint32_t cluster = movies::assign_cluster(movie, centroids_, &sim);
    files_.add(cluster, record.value, ctx);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g|", sim);
    ctx.emit(0, std::to_string(cluster), std::string(buf) + std::string(record.value));
  }

  void finish(engine::Context& ctx) override { files_.flush(ctx); }

 private:
  std::vector<std::string> centroid_lines_;
  std::vector<movies::MovieVector> centroids_;
  ClusterFileWriter files_;
};

// Picks the best full line and broadcasts it (no locality round-trip).
class NewCentroidGenFull : public engine::ReduceFlowlet {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    double best_sim = -1;
    std::string_view best_line, best_id;
    for (std::string_view v : values) {
      const size_t bar = v.find('|');
      if (bar == std::string_view::npos) continue;
      const double sim = std::strtod(std::string(v.substr(0, bar)).c_str(), nullptr);
      const std::string_view line = v.substr(bar + 1);
      const size_t colon = line.find(':');
      const std::string_view id =
          colon == std::string_view::npos ? line : line.substr(0, colon);
      if (sim > best_sim || (sim == best_sim && id < best_id)) {
        best_sim = sim;
        best_line = line;
        best_id = id;
      }
    }
    if (best_sim >= 0) ctx.emit_broadcast(0, key, best_line);
  }
};

// --- baseline (PUMA-style single job shuffling full movie lines) ---

class KmMapper : public mapreduce::Mapper {
 public:
  explicit KmMapper(std::vector<std::string> centroid_lines)
      : centroid_lines_(std::move(centroid_lines)),
        centroids_(movies::parse_centroids(centroid_lines_)) {}

  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    movies::MovieVector movie;
    if (!movies::parse_movie_vector(value, &movie)) return;
    double sim = 0;
    const uint32_t cluster = movies::assign_cluster(movie, centroids_, &sim);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g|", sim);
    // Full movie line travels through sort/spill/shuffle.
    ctx.emit(std::to_string(cluster), std::string(buf) + std::string(value));
  }

 private:
  std::vector<std::string> centroid_lines_;
  std::vector<movies::MovieVector> centroids_;
};

class KmReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    double best_sim = -1;
    std::string_view best_line;
    std::string_view best_id;
    for (std::string_view v : values) {
      const size_t bar = v.find('|');
      if (bar == std::string_view::npos) continue;
      const double sim = std::strtod(std::string(v.substr(0, bar)).c_str(), nullptr);
      const std::string_view line = v.substr(bar + 1);
      const size_t colon = line.find(':');
      const std::string_view id =
          colon == std::string_view::npos ? line : line.substr(0, colon);
      if (sim > best_sim || (sim == best_sim && id < best_id)) {
        best_sim = sim;
        best_line = line;
        best_id = id;
      }
    }
    if (best_sim >= 0) ctx.emit(key, best_line);
  }
};

}  // namespace

Params make_params(const std::vector<std::string>& shards, uint32_t k) {
  Params params;
  params.k = k;
  params.centroid_lines =
      movies::initial_centroid_lines(shards.empty() ? std::string() : shards[0], k);
  return params;
}

RunInfo run_hamr(BenchEnv& env, const StagedInput& input, const Params& params,
                 bool ship_full_vectors) {
  ir::Graph graph;
  const auto loader = add_text_source(graph, "TextLoader", input);
  const auto update = graph.add_map(
      "CentroidUpdate", [] { return std::make_unique<CentroidUpdate>(); });
  graph.node(update).effect = true;  // writes the new centroids
  if (ship_full_vectors) {
    const auto gen = graph.add_map("ClusterGenFull", [&params] {
      return std::make_unique<ClusterGenFull>(params.centroid_lines);
    });
    graph.node(gen).effect = true;  // writes out/kmeans/cluster*
    const auto newc = graph.add_reduce(
        "NewCentroidGenFull", [] { return std::make_unique<NewCentroidGenFull>(); });
    graph.connect(loader, gen, engine::local_edge());
    graph.connect(gen, newc);
    graph.connect(newc, update);
  } else {
    const auto gen = graph.add_map("ClusterGen", [&params] {
      return std::make_unique<ClusterGen>(params.centroid_lines);
    });
    graph.node(gen).effect = true;  // writes out/kmeans/cluster*
    const auto newc = graph.add_reduce(
        "NewCentroidGen", [] { return std::make_unique<NewCentroidGen>(); });
    const auto info_get = graph.add_map("NewCentroidInfoGet", [&input] {
      return std::make_unique<NewCentroidInfoGet>(input.local_path);
    });
    graph.connect(loader, gen, engine::local_edge());
    graph.connect(gen, newc);
    graph.connect(newc, info_get);
    graph.connect(info_get, update);
  }

  RunInfo run;
  remove_local_files(*env.cluster, "out/kmeans/cluster");
  run.engine_result = run_ir(env, std::move(graph));
  run.seconds = run.engine_result.wall_seconds;
  return run;
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input, const Params& params) {
  mapreduce::MrJobConfig config = env.mr_defaults;
  config.name = "kmeans";
  RunInfo run;
  run.baseline_result = env.mr->run(
      config, {input.dfs_path}, "/out/kmeans",
      [&params] { return std::make_unique<KmMapper>(params.centroid_lines); },
      [] { return std::make_unique<KmReducer>(); });
  run.seconds = run.baseline_result.wall_seconds;
  return run;
}

namespace {

std::map<uint32_t, std::string> parse_centroid_kv(
    const std::map<std::string, std::string>& kv) {
  std::map<uint32_t, std::string> out;
  for (const auto& [key, value] : kv) {
    uint32_t cluster = 0;
    std::from_chars(key.data(), key.data() + key.size(), cluster);
    out[cluster] = value;
  }
  return out;
}

}  // namespace

std::map<uint32_t, std::string> hamr_new_centroids(BenchEnv& env) {
  // Every node holds the broadcast centroids; node 0's copy is canonical.
  auto data = env.cluster->node(0).store().read_file("out/kmeans/newcentroids_node0");
  data.status().ExpectOk();
  std::map<std::string, std::string> kv;
  size_t pos = 0;
  const std::string& text = *data.value();
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line = std::string_view(text).substr(pos, eol - pos);
    const size_t tab = line.find('\t');
    if (tab != std::string_view::npos) {
      kv[std::string(line.substr(0, tab))] = std::string(line.substr(tab + 1));
    }
    pos = eol + 1;
  }
  return parse_centroid_kv(kv);
}

std::map<uint32_t, std::string> baseline_new_centroids(BenchEnv& env) {
  return parse_centroid_kv(collect_dfs_kv(env, "/out/kmeans"));
}

std::map<uint32_t, uint64_t> hamr_cluster_sizes(BenchEnv& env) {
  std::map<uint32_t, uint64_t> sizes;
  for (uint32_t n = 0; n < env.nodes(); ++n) {
    for (const std::string& path :
         env.cluster->node(n).store().list("out/kmeans/cluster")) {
      uint32_t cluster = 0;
      std::from_chars(path.data() + strlen("out/kmeans/cluster"),
                      path.data() + path.size(), cluster);
      auto data = env.cluster->node(n).store().read_file(path);
      data.status().ExpectOk();
      uint64_t lines = 0;
      for (char c : *data.value()) lines += c == '\n';
      sizes[cluster] += lines;
    }
  }
  return sizes;
}

ReferenceResult reference(const std::vector<std::string>& shards,
                          const Params& params) {
  const auto centroids = movies::parse_centroids(params.centroid_lines);
  ReferenceResult result;
  std::map<uint32_t, Candidate> best;
  for (const std::string& shard : shards) {
    size_t pos = 0;
    while (pos < shard.size()) {
      size_t eol = shard.find('\n', pos);
      if (eol == std::string::npos) eol = shard.size();
      movies::MovieVector movie;
      if (movies::parse_movie_vector(std::string_view(shard).substr(pos, eol - pos),
                                     &movie)) {
        double sim = 0;
        const uint32_t cluster = movies::assign_cluster(movie, centroids, &sim);
        ++result.cluster_sizes[cluster];
        Candidate c;
        c.sim = sim;
        c.id = std::string(movie.id);
        c.offset = pos;
        auto it = best.find(cluster);
        if (it == best.end() || better_candidate(c, it->second)) {
          best[cluster] = c;
          result.new_centroids[cluster] = shard.substr(pos, eol - pos);
        }
      }
      pos = eol + 1;
    }
  }
  return result;
}

}  // namespace hamr::apps::kmeans

#include "apps/classification.h"

#include <charconv>
#include <mutex>

#include "apps/counting.h"
#include "apps/movie_vectors.h"

namespace hamr::apps::classification {

namespace {

class ClassifyMap : public engine::MapFlowlet {
 public:
  explicit ClassifyMap(std::vector<std::string> centroid_lines)
      : centroid_lines_(std::move(centroid_lines)),
        centroids_(movies::parse_centroids(centroid_lines_)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    movies::MovieVector movie;
    if (!movies::parse_movie_vector(record.value, &movie)) return;
    const uint32_t cluster = movies::assign_cluster(movie, centroids_, nullptr);
    // Classified output goes straight to this node's disk (§3.3).
    append_local(cluster, record.value, ctx);
    ctx.emit(0, std::to_string(cluster), "1");
  }

  void finish(engine::Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [cluster, buf] : buffers_) {
      if (!buf.empty()) ctx.local_store().append(path(cluster, ctx), buf);
      buf.clear();
    }
  }

 private:
  void append_local(uint32_t cluster, std::string_view line, engine::Context& ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string& buf = buffers_[cluster];
    buf.append(line);
    buf.push_back('\n');
    if (buf.size() >= 256 * 1024) {
      ctx.local_store().append(path(cluster, ctx), buf);
      buf.clear();
    }
  }

  std::string path(uint32_t cluster, engine::Context& ctx) const {
    return "out/classification/cluster" + std::to_string(cluster) + "_node" +
           std::to_string(ctx.node());
  }

  std::vector<std::string> centroid_lines_;
  std::vector<movies::MovieVector> centroids_;
  std::mutex mu_;
  std::map<uint32_t, std::string> buffers_;
};

class ClassifyMapper : public mapreduce::Mapper {
 public:
  explicit ClassifyMapper(std::vector<std::string> centroid_lines)
      : centroid_lines_(std::move(centroid_lines)),
        centroids_(movies::parse_centroids(centroid_lines_)) {}

  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    movies::MovieVector movie;
    if (!movies::parse_movie_vector(value, &movie)) return;
    const uint32_t cluster = movies::assign_cluster(movie, centroids_, nullptr);
    ctx.emit(std::to_string(cluster), value);  // full line through the shuffle
  }

 private:
  std::vector<std::string> centroid_lines_;
  std::vector<movies::MovieVector> centroids_;
};

// Writes every classified line to the DFS output (PUMA behavior).
class ClassifyReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    for (std::string_view line : values) ctx.emit(key, line);
  }
};

}  // namespace

RunInfo run_hamr(BenchEnv& env, const StagedInput& input, const Params& params) {
  ir::Graph graph;
  const auto loader = add_text_source(graph, "TextLoader", input);
  const auto classify = graph.add_map("ClassifyMap", [&params] {
    return std::make_unique<ClassifyMap>(params.centroid_lines);
  });
  graph.node(classify).effect = true;  // writes out/classification/cluster*
  const auto counts = graph.add_combine("CountSink", [] {
    return std::make_unique<CountSink>("out/classification/counts_");
  });
  graph.node(counts).effect = true;
  graph.connect(loader, classify, engine::local_edge());
  graph.connect(classify, counts);

  RunInfo run;
  remove_local_files(*env.cluster, "out/classification/cluster");
  run.engine_result = run_ir(env, std::move(graph));
  run.seconds = run.engine_result.wall_seconds;
  return run;
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input, const Params& params) {
  mapreduce::MrJobConfig config = env.mr_defaults;
  config.name = "classification";
  RunInfo run;
  run.baseline_result = env.mr->run(
      config, {input.dfs_path}, "/out/classification",
      [&params] { return std::make_unique<ClassifyMapper>(params.centroid_lines); },
      [] { return std::make_unique<ClassifyReducer>(); });
  run.seconds = run.baseline_result.wall_seconds;
  return run;
}

std::map<uint32_t, uint64_t> hamr_cluster_sizes(BenchEnv& env) {
  std::map<uint32_t, uint64_t> out;
  for (const auto& [key, count] :
       to_counts(collect_local_kv(*env.cluster, "out/classification/counts_"))) {
    uint32_t cluster = 0;
    std::from_chars(key.data(), key.data() + key.size(), cluster);
    out[cluster] = count;
  }
  return out;
}

std::map<uint32_t, uint64_t> baseline_cluster_sizes(BenchEnv& env) {
  // Count lines per cluster key across part files.
  std::map<uint32_t, uint64_t> out;
  for (const std::string& path : env.dfs->list("/out/classification")) {
    auto data = env.dfs->read(0, path);
    data.status().ExpectOk();
    const std::string& text = data.value();
    size_t pos = 0;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string_view line = std::string_view(text).substr(pos, eol - pos);
      const size_t tab = line.find('\t');
      if (tab != std::string_view::npos) {
        uint32_t cluster = 0;
        std::from_chars(line.data(), line.data() + tab, cluster);
        ++out[cluster];
      }
      pos = eol + 1;
    }
  }
  return out;
}

std::map<uint32_t, uint64_t> reference(const std::vector<std::string>& shards,
                                       const Params& params) {
  return kmeans::reference(shards, params).cluster_sizes;
}

}  // namespace hamr::apps::classification

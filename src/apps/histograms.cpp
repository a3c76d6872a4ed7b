#include "apps/histograms.h"

#include <cmath>
#include <cstdio>

#include "apps/counting.h"

namespace hamr::apps::histograms {

namespace {

const char* out_prefix(Kind kind) {
  return kind == Kind::kMovies ? "out/histogram_movies/" : "out/histogram_ratings/";
}
const char* dfs_out(Kind kind) {
  return kind == Kind::kMovies ? "/out/histogram_movies" : "/out/histogram_ratings";
}

// Emits one (bucket, "1") per movie or one (rating, "1") per rating.
template <typename Emit>
void histogram_records(std::string_view line, Kind kind, Emit&& emit) {
  MovieLine movie;
  if (!parse_movie_line(line, &movie)) return;
  if (kind == Kind::kMovies) {
    emit(movie_bucket(movie.ratings), std::string_view("1"));
  } else {
    char key[2] = {0, 0};
    for (uint32_t r : movie.ratings) {
      key[0] = static_cast<char>('0' + r);
      emit(std::string_view(key, 1), std::string_view("1"));
    }
  }
}

class HistogramMap : public engine::MapFlowlet {
 public:
  explicit HistogramMap(Kind kind) : kind_(kind) {}
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    histogram_records(record.value, kind_, [&](std::string_view k, std::string_view v) {
      ctx.emit(0, k, v);
    });
  }

 private:
  Kind kind_;
};

class HistogramMapper : public mapreduce::Mapper {
 public:
  explicit HistogramMapper(Kind kind) : kind_(kind) {}
  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    histogram_records(value, kind_, [&](std::string_view k, std::string_view v) {
      ctx.emit(k, v);
    });
  }

 private:
  Kind kind_;
};

}  // namespace

bool parse_movie_line(std::string_view line, MovieLine* out) {
  const size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  out->id = line.substr(0, colon);
  out->ratings.clear();
  size_t pos = colon + 1;
  while (pos < line.size()) {
    const char c = line[pos];
    if (c >= '1' && c <= '5') out->ratings.push_back(static_cast<uint32_t>(c - '0'));
    pos += 2;  // rating digit + comma
  }
  return !out->ratings.empty();
}

std::string movie_bucket(const std::vector<uint32_t>& ratings) {
  double sum = 0;
  for (uint32_t r : ratings) sum += r;
  const double avg = sum / static_cast<double>(ratings.size());
  const double bucket = std::round(avg * 2.0) / 2.0;
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%.1f", bucket);
  return buf;
}

RunInfo run_hamr(BenchEnv& env, const StagedInput& input, Kind kind, bool combine) {
  ir::Graph graph;
  const auto loader = add_text_source(graph, "TextLoader", input);
  const auto map = graph.add_map(
      "HistogramMap", [kind] { return std::make_unique<HistogramMap>(kind); });
  const auto count = graph.add_combine("CountSink", [kind] {
    return std::make_unique<CountSink>(out_prefix(kind));
  });
  graph.node(count).effect = true;
  // Table 3's combiner: place_combiner puts it on the shuffle edge.
  graph.node(count).combinable = combine;
  graph.connect(loader, map, engine::local_edge());
  graph.connect(map, count);

  RunInfo info;
  info.engine_result = run_ir(env, std::move(graph));
  info.seconds = info.engine_result.wall_seconds;
  return info;
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input, Kind kind,
                     bool use_combiner) {
  mapreduce::MrJobConfig config = env.mr_defaults;
  config.name = kind == Kind::kMovies ? "histogram_movies" : "histogram_ratings";
  if (use_combiner) {
    config.combiner = [] { return std::make_unique<SumReducer>(); };
  }
  RunInfo info;
  info.baseline_result = env.mr->run(
      config, {input.dfs_path}, dfs_out(kind),
      [kind] { return std::make_unique<HistogramMapper>(kind); },
      [] { return std::make_unique<SumReducer>(); });
  info.seconds = info.baseline_result.wall_seconds;
  return info;
}

std::map<std::string, uint64_t> hamr_output(BenchEnv& env, Kind kind) {
  return to_counts(collect_local_kv(*env.cluster, out_prefix(kind)));
}

std::map<std::string, uint64_t> baseline_output(BenchEnv& env, Kind kind) {
  return to_counts(collect_dfs_kv(env, dfs_out(kind)));
}

std::map<std::string, uint64_t> reference(const std::vector<std::string>& shards,
                                          Kind kind) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& shard : shards) {
    size_t pos = 0;
    while (pos < shard.size()) {
      size_t eol = shard.find('\n', pos);
      if (eol == std::string::npos) eol = shard.size();
      histogram_records(std::string_view(shard).substr(pos, eol - pos), kind,
                        [&](std::string_view k, std::string_view) {
                          ++counts[std::string(k)];
                        });
      pos = eol + 1;
    }
  }
  return counts;
}

}  // namespace hamr::apps::histograms

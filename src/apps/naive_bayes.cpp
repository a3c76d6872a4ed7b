#include "apps/naive_bayes.h"

#include <mutex>

#include "apps/counting.h"

namespace hamr::apps::naive_bayes {

namespace {

// Parses "label<k>\tw1 w2 ..." into (label, per-doc term counts).
bool parse_doc(std::string_view line, std::string_view* label,
               std::map<std::string, uint64_t>* terms) {
  const size_t tab = line.find('\t');
  if (tab == std::string_view::npos) return false;
  *label = line.substr(0, tab);
  terms->clear();
  for (std::string_view word : tokenize(line.substr(tab + 1))) {
    ++(*terms)[std::string(word)];
  }
  return !terms->empty();
}

// --- HAMR flowlets ---

class IndexInstancesMapper : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    std::string_view label;
    std::map<std::string, uint64_t> terms;
    if (!parse_doc(record.value, &label, &terms)) return;
    ctx.emit(0, label, encode_vector(terms));
  }
};

// Sums per-label term vectors. Uses instance-managed state (the engine's
// string accumulator would force a full re-decode per document); fold() just
// registers the key, the real vectors live in `sums_`.
class VectorSumReducer : public engine::PartialReduceFlowlet {
 public:
  void fold(std::string_view key, std::string_view value, std::string& acc) override {
    (void)acc;  // presence in the engine table drives emit_result()
    auto doc = parse_vector(value);
    std::lock_guard<std::mutex> lock(mu_);
    auto& vec = sums_[std::string(key)];
    for (const auto& [feature, count] : doc) vec[feature] += count;
  }

  void emit_result(std::string_view key, std::string_view /*acc*/,
                   engine::Context& ctx) override {
    std::map<std::string, uint64_t> vec;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sums_.find(std::string(key));
      if (it == sums_.end()) return;
      vec.swap(it->second);
    }
    uint64_t label_total = 0;
    for (const auto& [feature, weight] : vec) {
      ctx.emit(0, feature, std::to_string(weight));
      label_total += weight;
    }
    ctx.emit(0, "L:" + std::string(key), std::to_string(label_total));
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::map<std::string, uint64_t>> sums_;
};

// --- baseline jobs ---

// Job 1 map: doc -> (label, doc term vector).
class VectorMapMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    std::string_view label;
    std::map<std::string, uint64_t> terms;
    if (!parse_doc(value, &label, &terms)) return;
    ctx.emit(label, encode_vector(terms));
  }
};

// Job 1 reduce/combine: merge term vectors per label.
class VectorSumMrReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    std::map<std::string, uint64_t> sum;
    for (std::string_view v : values) {
      for (const auto& [feature, count] : parse_vector(v)) sum[feature] += count;
    }
    ctx.emit(key, encode_vector(sum));
  }
};

// Job 2 map: (label, vector) line -> per-feature weights + label total.
class WeightMapMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view /*key*/, std::string_view value,
           mapreduce::MrContext& ctx) override {
    // Job-1 output line value is "<label>\t<vector>" re-split by the text
    // input format into key=offset value=whole line.
    const size_t tab = value.find('\t');
    if (tab == std::string_view::npos) return;
    const std::string_view label = value.substr(0, tab);
    uint64_t label_total = 0;
    for (const auto& [feature, weight] : parse_vector(value.substr(tab + 1))) {
      ctx.emit(feature, std::to_string(weight));
      label_total += weight;
    }
    ctx.emit("L:" + std::string(label), std::to_string(label_total));
  }
};

}  // namespace

std::map<std::string, uint64_t> parse_vector(std::string_view text) {
  std::map<std::string, uint64_t> out;
  for (std::string_view token : tokenize(text)) {
    const size_t colon = token.rfind(':');
    if (colon == std::string_view::npos) continue;
    out[std::string(token.substr(0, colon))] = parse_count(token.substr(colon + 1));
  }
  return out;
}

std::string encode_vector(const std::map<std::string, uint64_t>& vec) {
  std::string out;
  for (const auto& [feature, count] : vec) {
    if (!out.empty()) out.push_back(' ');
    out += feature;
    out.push_back(':');
    out += std::to_string(count);
  }
  return out;
}

RunInfo run_hamr(BenchEnv& env, const StagedInput& input) {
  ir::Graph graph;
  const auto loader = add_text_source(graph, "TextLoader", input);
  const auto index = graph.add_map(
      "IndexInstances", [] { return std::make_unique<IndexInstancesMapper>(); });
  const auto vecsum = graph.add_combine(
      "VectorSum", [] { return std::make_unique<VectorSumReducer>(); });
  const auto weightsum = graph.add_combine("WeightSum", [] {
    return std::make_unique<CountSink>("out/naive_bayes/");
  });
  graph.node(weightsum).effect = true;
  graph.connect(loader, index, engine::local_edge());
  graph.connect(index, vecsum);
  graph.connect(vecsum, weightsum);

  RunInfo info;
  info.engine_result = run_ir(env, std::move(graph));
  info.seconds = info.engine_result.wall_seconds;
  return info;
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input) {
  RunInfo info;

  mapreduce::MrJobConfig job1 = env.mr_defaults;
  job1.name = "nb_vectorsum";
  job1.combiner = [] { return std::make_unique<VectorSumMrReducer>(); };
  auto r1 = env.mr->run(
      job1, {input.dfs_path}, "/tmp/nb_vectors",
      [] { return std::make_unique<VectorMapMapper>(); },
      [] { return std::make_unique<VectorSumMrReducer>(); });

  std::vector<std::string> job2_inputs = env.dfs->list("/tmp/nb_vectors");
  mapreduce::MrJobConfig job2 = env.mr_defaults;
  job2.name = "nb_weightsum";
  job2.combiner = [] { return std::make_unique<SumReducer>(); };
  auto r2 = env.mr->run(
      job2, job2_inputs, "/out/naive_bayes",
      [] { return std::make_unique<WeightMapMapper>(); },
      [] { return std::make_unique<SumReducer>(); });

  info.baseline_result = r2;
  info.baseline_result.wall_seconds = r1.wall_seconds + r2.wall_seconds;
  info.seconds = info.baseline_result.wall_seconds;
  return info;
}

std::map<std::string, uint64_t> hamr_output(BenchEnv& env) {
  return to_counts(collect_local_kv(*env.cluster, "out/naive_bayes/"));
}

std::map<std::string, uint64_t> baseline_output(BenchEnv& env) {
  return to_counts(collect_dfs_kv(env, "/out/naive_bayes"));
}

std::map<std::string, uint64_t> reference(const std::vector<std::string>& shards) {
  std::map<std::string, uint64_t> out;
  std::map<std::string, uint64_t> label_totals;
  for (const std::string& shard : shards) {
    size_t pos = 0;
    while (pos < shard.size()) {
      size_t eol = shard.find('\n', pos);
      if (eol == std::string::npos) eol = shard.size();
      std::string_view label;
      std::map<std::string, uint64_t> terms;
      if (parse_doc(std::string_view(shard).substr(pos, eol - pos), &label, &terms)) {
        for (const auto& [feature, count] : terms) {
          out[feature] += count;
          label_totals[std::string(label)] += count;
        }
      }
      pos = eol + 1;
    }
  }
  for (const auto& [label, total] : label_totals) out["L:" + label] = total;
  return out;
}

}  // namespace hamr::apps::naive_bayes

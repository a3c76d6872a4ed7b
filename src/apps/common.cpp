#include "apps/common.h"

#include <algorithm>
#include <charconv>

#include "engine/loaders.h"
#include "ir/lower.h"
#include "ir/passes.h"

namespace hamr::apps {

BenchEnv BenchEnv::make(cluster::ClusterConfig cluster_cfg,
                        engine::EngineConfig engine_cfg, dfs::DfsConfig dfs_cfg) {
  BenchEnv env;
  env.cluster_config = cluster_cfg;
  env.cluster = std::make_unique<cluster::Cluster>(cluster_cfg);
  env.dfs = std::make_unique<dfs::MiniDfs>(*env.cluster, dfs_cfg);
  env.engine = std::make_unique<engine::Engine>(*env.cluster, engine_cfg);
  env.mr = std::make_unique<mapreduce::JobRunner>(*env.cluster, *env.dfs);
  cache::DatasetCache::Config cache_cfg;
  cache_cfg.byte_budget =
      std::max<uint64_t>(engine_cfg.memory_budget_bytes / 4, 1 << 20);
  cache_cfg.event_log = engine_cfg.event_log;
  env.dataset_cache =
      std::make_shared<cache::DatasetCache>(*env.cluster, cache_cfg);
  return env;
}

BenchEnv BenchEnv::fast(uint32_t nodes, uint32_t threads) {
  BenchEnv env = make(cluster::ClusterConfig::fast(nodes, threads),
                      engine::EngineConfig::fast());
  env.mr_defaults.job_startup_cost = Duration::zero();
  env.mr_defaults.task_startup_cost = Duration::zero();
  return env;
}

std::vector<std::string> make_shards(
    uint32_t n, const std::function<std::string(uint32_t)>& fn) {
  std::vector<std::string> shards;
  shards.reserve(n);
  for (uint32_t i = 0; i < n; ++i) shards.push_back(fn(i));
  return shards;
}

StagedInput stage_input(BenchEnv& env, const std::string& name,
                        const std::vector<std::string>& shards,
                        uint64_t split_target_bytes) {
  StagedInput staged;
  staged.local_path = "input/" + name;
  staged.dfs_path = "/input/" + name;
  if (split_target_bytes == 0) split_target_bytes = 1 << 20;

  std::string whole;
  for (uint32_t n = 0; n < env.nodes(); ++n) {
    const std::string& shard = n < shards.size() ? shards[n] : std::string();
    env.cluster->node(n).store().write_file(staged.local_path, shard);
    whole += shard;
    staged.total_bytes += shard.size();

    // Cut line-aligned splits.
    uint64_t offset = 0;
    while (offset < shard.size()) {
      uint64_t end = std::min<uint64_t>(offset + split_target_bytes, shard.size());
      if (end < shard.size()) {
        const size_t eol = shard.find('\n', end);
        end = eol == std::string::npos ? shard.size() : eol + 1;
      }
      engine::InputSplit split;
      split.path = staged.local_path;
      split.offset = offset;
      split.length = end - offset;
      split.preferred_node = n;
      staged.splits.push_back(split);
      offset = end;
    }
  }
  env.dfs->write(/*writer_node=*/0, staged.dfs_path, whole).ExpectOk();
  return staged;
}

ir::NodeId add_text_source(ir::Graph& graph, std::string name,
                           const StagedInput& staged, ir::TypeTag out) {
  const ir::NodeId loader = graph.add_source(
      std::move(name), [] { return std::make_unique<engine::TextLoader>(); },
      std::move(out));
  graph.node(loader).splits = staged.splits;
  return loader;
}

engine::JobResult run_ir(BenchEnv& env, ir::Graph graph) {
  const ir::Lowered lowered = ir::lower(ir::optimize(std::move(graph)));
  return env.engine->run(lowered.graph, lowered.inputs);
}

namespace {

void parse_kv_lines(std::string_view text, std::map<std::string, std::string>* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    const size_t tab = line.find('\t');
    if (tab != std::string_view::npos) {
      (*out)[std::string(line.substr(0, tab))] = std::string(line.substr(tab + 1));
    }
    pos = eol + 1;
  }
}

}  // namespace

std::map<std::string, std::string> collect_local_kv(cluster::Cluster& cluster,
                                                    const std::string& prefix) {
  std::map<std::string, std::string> out;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    for (const std::string& path : cluster.node(n).store().list(prefix)) {
      auto data = cluster.node(n).store().read_file(path);
      data.status().ExpectOk();
      parse_kv_lines(*data.value(), &out);
    }
  }
  return out;
}

void remove_local_files(cluster::Cluster& cluster, const std::string& prefix) {
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    storage::FileStore& store = cluster.node(n).store();
    for (const std::string& path : store.list(prefix)) (void)store.remove(path);
  }
}

std::map<std::string, std::string> collect_dfs_kv(BenchEnv& env,
                                                  const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const std::string& path : env.dfs->list(dir)) {
    auto data = env.dfs->read(0, path);
    data.status().ExpectOk();
    parse_kv_lines(data.value(), &out);
  }
  return out;
}

std::map<std::string, uint64_t> to_counts(
    const std::map<std::string, std::string>& kv) {
  std::map<std::string, uint64_t> out;
  for (const auto& [key, value] : kv) {
    uint64_t n = 0;
    std::from_chars(value.data(), value.data() + value.size(), n);
    out[key] = n;
  }
  return out;
}

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > pos) out.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

}  // namespace hamr::apps

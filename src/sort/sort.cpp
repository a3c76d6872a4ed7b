#include "sort/sort.h"

#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/arena.h"
#include "common/hash.h"
#include "common/logging.h"
#include "engine/runtime.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "obs/trace.h"
#include "serde/batch.h"
#include "sort/merge.h"
#include "storage/run_file.h"

namespace hamr::sort {

namespace {

using engine::internal::key_prefix;
using Rec = engine::internal::ReduceStage::Rec;

// Streams the node-local framed input file in record chunks. One split per
// node covers the whole file; the cursor is the byte offset into it.
class SortRunLoader : public engine::LoaderFlowlet {
 public:
  explicit SortRunLoader(SortSpec spec) : spec_(std::move(spec)) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!loaded_) {
        Result<storage::FileBuffer> file = ctx.local_store().read_file(split.path);
        if (!file.ok()) {
          HLOG_ERROR << "sort loader: cannot read " << split.path << ": "
                     << file.status().ToString();
          // Treat as empty: the job still completes.
          data_ = std::make_shared<const std::string>();
        } else {
          data_ = std::move(file).value();
        }
        loaded_ = true;
      }
    }
    const std::string& data = *data_;
    size_t pos = static_cast<size_t>(*cursor);
    if (pos >= data.size()) return false;
    // The shared framed-record decode loop (also used by the query layer's
    // row scan): one bounds-checked cursor walk per chunk.
    std::vector<std::string_view> records;
    records.reserve(spec_.records_per_chunk);
    serde::get_framed_run(data, &pos, spec_.records_per_chunk, &records);
    for (const std::string_view rec : records) {
      ctx.emit(0, rec, std::string_view());
    }
    *cursor = pos;
    return pos < data.size();
  }

 private:
  SortSpec spec_;
  std::mutex mu_;
  bool loaded_ = false;
  // The store's immutable file buffer: chunks hand out views into it.
  storage::FileBuffer data_;
};

// Receives this node's key range, staging records through an arena + prefix
// index, spilling sorted runs past the budget, and loser-tree merging
// everything into the node's output partition at finish.
class SortSink : public engine::MapFlowlet {
 public:
  explicit SortSink(SortSpec spec) : spec_(std::move(spec)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    // Stage under the sink lock: one arena bump holds the record, the index
    // entry caches the 8-byte key prefix so run sorts are mostly integer
    // compares. Spill state is moved out wholesale while locked and sorted /
    // written outside the lock.
    Arena spill_arena;
    std::vector<Rec> to_spill;
    std::string spill_file;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wire_metrics(ctx);
      char* data = arena_.alloc(record.key.size() + record.value.size());
      std::memcpy(data, record.key.data(), record.key.size());
      std::memcpy(data + record.key.size(), record.value.data(),
                  record.value.size());
      Rec rec;
      rec.prefix = key_prefix(record.key);
      rec.key_len = static_cast<uint32_t>(record.key.size());
      rec.value_len = static_cast<uint32_t>(record.value.size());
      rec.data = data;
      index_.push_back(rec);
      bytes_ += record.key.size() + record.value.size() + sizeof(Rec);
      if (bytes_ >= spec_.memory_budget_bytes) {
        spill_arena = std::move(arena_);
        arena_ = Arena(arena_gauge_);
        to_spill.swap(index_);
        bytes_ = 0;
        spill_file = spill_path(ctx.node(), next_spill_++);
        spill_paths_.push_back(spill_file);
      }
    }
    if (!to_spill.empty()) {
      obs::TraceSpan span("sort.spill", "sort", ctx.node(), -1,
                          static_cast<int64_t>(to_spill.size()));
      engine::internal::sort_recs(&to_spill);
      storage::RunWriter writer(&ctx.local_store(), spill_file,
                                engine::internal::run_file_bytes(to_spill));
      for (const Rec& r : to_spill) writer.add(r.key(), r.value());
      writer.close();
      spill_runs_c_->inc();
    }
  }

  void finish(engine::Context& ctx) override {
    // Upstream complete: no process() can race this. Sort the in-memory
    // remainder and merge it with the spill runs through the loser tree.
    {
      std::lock_guard<std::mutex> lock(mu_);
      wire_metrics(ctx);  // a node may receive zero records for its range
    }
    obs::TraceSpan span("sort.merge", "sort", ctx.node(), -1,
                        static_cast<int64_t>(spill_paths_.size()));
    engine::internal::sort_recs(&index_);

    struct Source {
      std::unique_ptr<storage::RunReader> reader;  // null => memory source
      const std::vector<Rec>* mem = nullptr;
      size_t mem_pos = 0;
      bool next(std::string_view* key, std::string_view* value) {
        if (reader) return reader->next(key, value);
        if (mem_pos >= mem->size()) return false;
        const Rec& r = (*mem)[mem_pos++];
        *key = r.key();
        *value = r.value();
        return true;
      }
    };
    // The merged partition re-encodes every record unchanged: its exact size
    // is the spill runs plus the in-memory records' encoded size.
    uint64_t out_bytes = engine::internal::run_file_bytes(index_);
    std::vector<Source> sources;
    sources.reserve(spill_paths_.size() + 1);
    for (const std::string& path : spill_paths_) {
      Source s;
      s.reader = std::make_unique<storage::RunReader>(&ctx.local_store(), path);
      out_bytes += s.reader->size();
      sources.push_back(std::move(s));
    }
    Source mem;
    mem.mem = &index_;
    sources.push_back(std::move(mem));
    merge_fan_in_h_->observe(sources.size());

    LoserTree<Source> tree(std::move(sources));
    storage::RunWriter out(&ctx.local_store(),
                           spec_.output_prefix + "/p" + std::to_string(ctx.node()),
                           out_bytes);
    std::string_view key, value;
    uint64_t records = 0;
    while (tree.next(&key, &value)) {
      out.add(key, value);
      ++records;
    }
    out.close();
    ctx.metrics().counter("sort.records_out")->add(records);

    index_.clear();
    index_.shrink_to_fit();
    arena_.clear();
    for (const std::string& path : spill_paths_) {
      (void)ctx.local_store().remove(path);
    }
    spill_paths_.clear();
  }

 private:
  // Called under mu_. Bins can arrive and be processed before this node's
  // activate_job has run the flowlet's start() hook (cross-node activation
  // is not barriered), so the metric wiring happens lazily on the first
  // record instead of in start() - and the arena is NEVER reassigned once a
  // record has been staged into it.
  void wire_metrics(engine::Context& ctx) {
    if (wired_) return;
    wired_ = true;
    arena_gauge_ = ctx.metrics().gauge("engine.arena_bytes");
    arena_ = Arena(arena_gauge_);  // safe: nothing staged yet
    spill_runs_c_ = ctx.metrics().counter("sort.spill_runs");
    merge_fan_in_h_ = ctx.metrics().histogram("sort.merge_fan_in");
  }

  std::string spill_path(uint32_t node, uint64_t n) const {
    return spec_.output_prefix + "/spill/n" + std::to_string(node) + "/r" +
           std::to_string(n);
  }

  SortSpec spec_;
  bool wired_ = false;
  Gauge* arena_gauge_ = nullptr;
  Counter* spill_runs_c_ = nullptr;
  Histogram* merge_fan_in_h_ = nullptr;
  std::mutex mu_;
  Arena arena_;
  std::vector<Rec> index_;
  uint64_t bytes_ = 0;
  std::vector<std::string> spill_paths_;
  uint64_t next_spill_ = 0;
};

}  // namespace

std::string frame_records(const std::vector<std::string>& records) {
  ByteBuffer buf;
  serde::Writer w(buf);
  for (const std::string& rec : records) serde::put_framed(w, rec);
  return std::string(buf.view());
}

void stage_sort_input(cluster::Cluster& cluster, const SortSpec& spec,
                      const std::vector<std::string>& shards) {
  for (uint32_t n = 0; n < cluster.size() && n < shards.size(); ++n) {
    cluster.node(n).store().write_file(spec.input_path, shards[n]);
  }
}

RangePartitioner sample_partitioner(cluster::Cluster& cluster,
                                    const SortSpec& spec, uint32_t parts) {
  // One sampler per node, each on its own thread over that node's input.
  // The samples are joined in node order, so the boundaries never depend on
  // thread timing.
  const uint32_t nodes = cluster.size();
  const size_t per_node = (spec.sample_capacity + nodes - 1) / nodes;
  std::vector<std::vector<std::string>> samples(nodes);
  std::vector<std::exception_ptr> errors(nodes);
  {
    // jthreads join on scope exit, also if a later thread fails to start.
    std::vector<std::jthread> threads;
    threads.reserve(nodes);
    for (uint32_t n = 0; n < nodes; ++n) {
      threads.emplace_back([&, n] {
        try {
          Result<storage::FileBuffer> file =
              cluster.node(n).store().read_file(spec.input_path);
          if (!file.ok()) return;  // node without input contributes no samples
          KeySampler sampler(per_node, hash_combine(spec.sample_seed, n));
          const std::string& data = *file.value();
          size_t pos = 0;
          std::vector<std::string_view> records;
          while (pos < data.size()) {
            records.clear();
            serde::get_framed_run(data, &pos, 4096, &records);
            for (const std::string_view rec : records) sampler.add(rec);
          }
          samples[n] = sampler.take_samples();
        } catch (...) {
          errors[n] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<std::string> all;
  for (std::vector<std::string>& node_samples : samples) {
    for (std::string& key : node_samples) all.push_back(std::move(key));
  }
  return RangePartitioner::from_samples(std::move(all), parts);
}

SortStats run_distributed_sort(engine::Engine& engine, const SortSpec& spec) {
  cluster::Cluster& cluster = engine.cluster();
  SortStats stats;
  stats.partitioner = sample_partitioner(cluster, spec, cluster.size());

  ir::Graph graph;
  const auto loader = graph.add_source(
      "sort_load", [spec] { return std::make_unique<SortRunLoader>(spec); });
  const auto sink = graph.add_sink(
      "sort_sink", [spec] { return std::make_unique<SortSink>(spec); });
  engine::EdgeOptions range_edge;
  range_edge.partitioner = stats.partitioner.as_edge_partitioner();
  graph.connect(loader, sink, range_edge);
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    engine::InputSplit split;
    split.path = spec.input_path;
    split.offset = 0;
    split.length = cluster.node(n).store().file_size(spec.input_path).value_or(0);
    split.preferred_node = n;
    graph.node(loader).splits.push_back(std::move(split));
  }

  const ir::Lowered job = ir::lower(ir::optimize(std::move(graph)));
  stats.job = engine.run(job.graph, job.inputs);
  stats.input_records = stats.job.metrics.counter("engine.records");
  return stats;
}

std::vector<std::string> collect_sorted(cluster::Cluster& cluster,
                                        const SortSpec& spec) {
  // No reserve: counting the records first is one more walk over every
  // partition, which costs more than the vector's regrowth.
  std::vector<std::string> out;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    const std::string path = spec.output_prefix + "/p" + std::to_string(n);
    if (!cluster.node(n).store().exists(path)) continue;
    storage::RunReader reader(&cluster.node(n).store(), path);
    std::string_view key, value;
    while (reader.next(&key, &value)) out.emplace_back(key);
  }
  return out;
}

}  // namespace hamr::sort

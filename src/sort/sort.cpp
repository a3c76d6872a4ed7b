#include "sort/sort.h"

#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "obs/trace.h"
#include "serde/batch.h"
#include "storage/run_file.h"
#include "storage/staged_runs.h"

namespace hamr::sort {

namespace {

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

// Receives this node's key range, staging records through storage::StagedRuns,
// spilling sorted runs past the sink's own budget, and merging everything
// into the node's output partition at finish.
class SortSink : public engine::MapFlowlet {
 public:
  explicit SortSink(SortSpec spec) : spec_(std::move(spec)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    // Stage under the sink lock; a spill batch is moved out while locked and
    // sorted / written outside the lock.
    storage::SpillBatch spill;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wire(ctx);
      staged_.stage(record.key, record.value);
      bytes_ += record.key.size() + record.value.size() + sizeof(storage::Rec);
      if (bytes_ >= spec_.memory_budget_bytes) {
        spill = staged_.take_batch(spill_path(ctx.node(), staged_.runs().size()));
        bytes_ = 0;
      }
    }
    if (!spill.empty()) {
      obs::TraceSpan span("sort.spill", "sort", ctx.node(), -1,
                          static_cast<int64_t>(spill.recs.size()));
      spill.write([](storage::RunWriter& w) { w.close(); });
      spill_runs_c_->inc();
    }
  }

  void finish(engine::Context& ctx) override {
    // Upstream complete: no process() can race this.
    {
      std::lock_guard<std::mutex> lock(mu_);
      wire(ctx);  // a node may receive zero records for its range
    }
    obs::TraceSpan span("sort.merge", "sort", ctx.node(), -1,
                        static_cast<int64_t>(staged_.runs().size()));
    // The merged partition re-encodes every record unchanged, so its exact
    // size is known up front.
    storage::RunWriter out(&ctx.local_store(),
                           spec_.output_prefix + "/p" + std::to_string(ctx.node()),
                           staged_.merged_bytes());
    auto merge = staged_.merge();
    merge_fan_in_h_->observe(merge.fan_in());
    std::string_view key, value;
    uint64_t records = 0;
    while (merge.next(&key, &value)) {
      out.add(key, value);
      ++records;
    }
    out.close();
    ctx.metrics().counter("sort.records_out")->add(records);
    staged_.clear();
  }

 private:
  // Called under mu_. Bins can arrive and be processed before this node's
  // activate_job has run the flowlet's start() hook (cross-node activation
  // is not barriered), so the store, metric and arena wiring happens lazily
  // on the first record instead of in start() - and the staging arena is
  // NEVER reassigned once a record has been staged into it.
  void wire(engine::Context& ctx) {
    if (wired_) return;
    wired_ = true;
    staged_ = storage::StagedRuns(&ctx.local_store(),
                                  ctx.metrics().gauge("engine.arena_bytes"));
    spill_runs_c_ = ctx.metrics().counter("sort.spill_runs");
    merge_fan_in_h_ = ctx.metrics().histogram("sort.merge_fan_in");
  }

  std::string spill_path(uint32_t node, uint64_t n) const {
    return spec_.output_prefix + "/spill/n" + std::to_string(node) + "/r" +
           std::to_string(n);
  }

  SortSpec spec_;
  bool wired_ = false;
  Counter* spill_runs_c_ = nullptr;
  Histogram* merge_fan_in_h_ = nullptr;
  std::mutex mu_;
  storage::StagedRuns staged_;
  uint64_t bytes_ = 0;  // staged since the last spill, charged per record
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

#include "query/exec.h"

#include <map>
#include <mutex>
#include <stdexcept>

#include "cache/dataset_cache.h"
#include "common/bytes.h"
#include "serde/batch.h"

namespace hamr::query {

std::string encode_table_shard(const Table& table, uint32_t shard,
                               uint32_t num_shards) {
  // Framed row blocks: (varint len | encode_row_block bytes)*. The batch
  // codec amortizes bounds checks across a block; the framing lets the scan
  // loader walk blocks with the shared serde::get_framed_run cursor loop.
  constexpr size_t kRowsPerBlock = 256;
  ByteBuffer buf;
  serde::Writer writer(buf);
  std::vector<Row> block;
  block.reserve(kRowsPerBlock);
  for (size_t i = shard; i < table.rows.size(); i += num_shards) {
    block.push_back(table.rows[i]);
    if (block.size() == kRowsPerBlock) {
      serde::put_framed(writer, table.schema.encode_row_block(block));
      block.clear();
    }
  }
  if (!block.empty()) {
    serde::put_framed(writer, table.schema.encode_row_block(block));
  }
  return std::string(buf.view());
}

bool RowPipeline::apply(Row* row) const {
  for (const Step& step : steps) {
    if (step.is_filter) {
      if (!eval_predicate(step.pred, *row)) return false;
    } else {
      Row projected;
      projected.reserve(step.cols.size());
      for (uint32_t c : step.cols) projected.push_back(std::move((*row)[c]));
      *row = std::move(projected);
    }
  }
  return true;
}

// --- aggregate state codec -------------------------------------------------

namespace {

void put_minmax(const Value& v, serde::Writer* w) {
  switch (v.type) {
    case ColType::kI64: w->put_zigzag(v.i); break;
    case ColType::kF64: w->put_double(v.f); break;
    case ColType::kStr: w->put_bytes(v.s); break;
  }
}

Value get_minmax(ColType type, serde::Reader* r) {
  switch (type) {
    case ColType::kI64: return Value::of(r->get_zigzag());
    case ColType::kF64: return Value::of(r->get_double());
    case ColType::kStr: return Value::of(std::string(r->get_bytes()));
  }
  throw serde::DecodeError("unknown minmax type");
}

bool value_less(const Value& a, const Value& b) {
  switch (a.type) {
    case ColType::kI64: return a.i < b.i;
    case ColType::kF64: return a.f < b.f;
    case ColType::kStr: return a.s < b.s;
  }
  return false;
}

}  // namespace

std::string GroupCompiled::state_of_row(const Row& row) const {
  ByteBuffer buf;
  serde::Writer writer(buf);
  for (const AggSpec& agg : aggs) {
    switch (agg.kind) {
      case AggKind::kCount:
        writer.put_varint(1);
        break;
      case AggKind::kSum: {
        const Value& v = row[agg.col];
        if (v.type == ColType::kI64) {
          writer.put_fixed64(static_cast<uint64_t>(v.i));
        } else {
          writer.put_double(v.as_f64());
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax:
        put_minmax(row[agg.col], &writer);
        break;
    }
  }
  return std::string(buf.view());
}

std::string GroupCompiled::merge_states(std::string_view a,
                                        std::string_view b) const {
  serde::Reader ra(a), rb(b);
  ByteBuffer buf;
  serde::Writer writer(buf);
  for (const AggSpec& agg : aggs) {
    switch (agg.kind) {
      case AggKind::kCount:
        writer.put_varint(ra.get_varint() + rb.get_varint());
        break;
      case AggKind::kSum: {
        const ColType t = in_schema.cols[agg.col].type;
        if (t == ColType::kI64) {
          writer.put_fixed64(ra.get_fixed64() + rb.get_fixed64());
        } else {
          writer.put_double(ra.get_double() + rb.get_double());
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        const ColType t = in_schema.cols[agg.col].type;
        Value va = get_minmax(t, &ra);
        Value vb = get_minmax(t, &rb);
        const bool b_less = value_less(vb, va);
        const bool take_b = agg.kind == AggKind::kMin
                                ? b_less
                                : (!b_less && !(va == vb));
        put_minmax(take_b ? vb : va, &writer);
        break;
      }
    }
  }
  return std::string(buf.view());
}

Row GroupCompiled::finalize(Row key_vals, std::string_view state) const {
  serde::Reader reader(state);
  Row out = std::move(key_vals);
  for (const AggSpec& agg : aggs) {
    switch (agg.kind) {
      case AggKind::kCount:
        out.push_back(Value::of(static_cast<int64_t>(reader.get_varint())));
        break;
      case AggKind::kSum:
        if (in_schema.cols[agg.col].type == ColType::kI64) {
          out.push_back(Value::of(static_cast<int64_t>(reader.get_fixed64())));
        } else {
          out.push_back(Value::of(reader.get_double()));
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        out.push_back(get_minmax(in_schema.cols[agg.col].type, &reader));
        break;
    }
  }
  return out;
}

// --- emit spec -------------------------------------------------------------

void EmitSpec::emit_row(const Row& row, engine::Context& ctx) const {
  switch (mode) {
    case Mode::kLocalRow:
      // The edge is local: the record stays on this node regardless of key.
      ctx.emit(0, std::string_view(), schema.encode_row(row));
      return;
    case Mode::kJoinSide: {
      std::string value;
      value.push_back(static_cast<char>(side));
      value += schema.encode_row(row);
      ctx.emit(0, encode_key(row, key_cols), value);
      return;
    }
    case Mode::kGroupState:
      ctx.emit(0, encode_key(row, group->key_cols), group->state_of_row(row));
      return;
  }
}

// --- flowlets --------------------------------------------------------------

namespace {

// Reads a staged row shard from the node-local store in fine-grain chunks.
// One instance serves every split scheduled on its node; the file cache and
// cursor math mirror engine::TextLoader.
class RowScanLoader : public engine::LoaderFlowlet {
 public:
  explicit RowScanLoader(std::shared_ptr<const ScanCompiled> c)
      : c_(std::move(c)) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override {
    std::shared_ptr<const std::string> data = split_data(split, ctx);
    const std::string_view shard =
        std::string_view(*data).substr(split.offset, split.length);
    size_t pos = static_cast<size_t>(*cursor);
    if (pos >= shard.size()) return false;

    // Walk framed row blocks with the shared chunked-decode loop (also used
    // by the sort run loader), batch-decoding each block in one pass.
    uint64_t produced = 0;
    std::vector<std::string_view> blocks;
    while (produced < c_->rows_per_chunk && pos < shard.size()) {
      blocks.clear();
      if (serde::get_framed_run(shard, &pos, 1, &blocks) == 0) break;
      std::vector<Row> rows = c_->table_schema.decode_row_block(blocks[0]);
      produced += rows.size();
      for (Row& row : rows) {
        if (c_->pipeline.apply(&row)) c_->emit.emit_row(row, ctx);
      }
    }
    *cursor = pos;
    return pos < shard.size();
  }

 private:
  std::shared_ptr<const std::string> split_data(const engine::InputSplit& split,
                                                engine::Context& ctx) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(split.path);
      if (it != cache_.end()) return it->second;
    }
    auto result = ctx.local_store().read_file(split.path);
    if (!result.ok()) {
      throw std::runtime_error("query scan: cannot read " + split.path + ": " +
                               result.status().ToString());
    }
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.emplace(split.path, std::move(result).value()).first->second;
  }

  const std::shared_ptr<const ScanCompiled> c_;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<const std::string>> cache_;
};

// Scan over a dataset-cache-resident staged table: each record value is one
// encode_row_block frame, decoded straight from the pinned block buffers -
// no store read, no per-query re-stage. The held pin keeps the dataset
// resident (and its buffers valid) for the life of the job.
class CachedRowScanLoader : public engine::LoaderFlowlet {
 public:
  CachedRowScanLoader(std::shared_ptr<const ScanCompiled> c,
                      std::shared_ptr<const cache::Dataset> dataset)
      : c_(std::move(c)), dataset_(std::move(dataset)) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override {
    const uint32_t shard_idx = static_cast<uint32_t>(split.user_tag);
    if (shard_idx >= dataset_->nodes()) return false;
    const cache::Dataset::Shard& shard = dataset_->shard(shard_idx);
    cache::ShardCursor sc;
    sc.packed = *cursor;
    uint64_t produced = 0;
    std::string_view key;
    std::string_view block;
    bool more = true;
    while (produced < c_->rows_per_chunk &&
           (more = cache::next_record(shard, &sc, &key, &block))) {
      std::vector<Row> rows = c_->table_schema.decode_row_block(block);
      produced += rows.size();
      for (Row& row : rows) {
        if (c_->pipeline.apply(&row)) c_->emit.emit_row(row, ctx);
      }
    }
    *cursor = sc.packed;
    return more;
  }

 private:
  const std::shared_ptr<const ScanCompiled> c_;
  const std::shared_ptr<const cache::Dataset> dataset_;
};

// Fused filter/project chain above a join or group-by, fed over a local
// edge. Stateless, so concurrent process() calls need no synchronization.
class FusedMap : public engine::MapFlowlet {
 public:
  explicit FusedMap(std::shared_ptr<const MapCompiled> c) : c_(std::move(c)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    Row row = c_->in_schema.decode_row(record.value);
    if (c_->pipeline.apply(&row)) c_->emit.emit_row(row, ctx);
  }

 private:
  const std::shared_ptr<const MapCompiled> c_;
};

// Inner equi-join: both sides shuffle on the encoded key, so one reduce call
// sees every row of one key from both sides and emits the cross product.
class JoinFlowlet : public engine::ReduceFlowlet {
 public:
  explicit JoinFlowlet(std::shared_ptr<const JoinCompiled> c)
      : c_(std::move(c)) {}

  void reduce(std::string_view key,
              const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    (void)key;
    std::vector<Row> left, right;
    for (std::string_view v : values) {
      if (v.empty()) throw serde::DecodeError("empty join value");
      const uint8_t side = static_cast<uint8_t>(v.front());
      std::string_view bytes = v.substr(1);
      if (side == 0) {
        left.push_back(c_->left_schema.decode_row(bytes));
      } else {
        right.push_back(c_->right_schema.decode_row(bytes));
      }
    }
    for (const Row& l : left) {
      for (const Row& r : right) {
        Row joined = l;
        joined.insert(joined.end(), r.begin(), r.end());
        c_->emit.emit_row(joined, ctx);
      }
    }
  }

 private:
  const std::shared_ptr<const JoinCompiled> c_;
};

// Grouped aggregation on the partial-reduce path: every arriving value is
// already an aggregate state, fold() merges two states, and the node's
// FlatAccTable holds one accumulator per encoded group key. The same fold
// runs sender-side when the in-edge has the combiner enabled.
class GroupByFlowlet : public engine::PartialReduceFlowlet {
 public:
  GroupByFlowlet(std::shared_ptr<const GroupCompiled> g, EmitSpec emit)
      : g_(std::move(g)), emit_(std::move(emit)) {}

  void fold(std::string_view key, std::string_view value,
            std::string& acc) override {
    (void)key;
    acc = acc.empty() ? std::string(value) : g_->merge_states(acc, value);
  }

  void emit_result(std::string_view key, std::string_view acc,
                   engine::Context& ctx) override {
    emit_.emit_row(g_->finalize(decode_key(key, g_->key_types), acc), ctx);
  }

 private:
  const std::shared_ptr<const GroupCompiled> g_;
  const EmitSpec emit_;
};

// Terminal sink: collects this node's final rows and writes them as hex
// lines, one row per line, for collect_output_payload() to merge.
class SinkFlowlet : public engine::MapFlowlet {
 public:
  explicit SinkFlowlet(std::string out_prefix)
      : out_prefix_(std::move(out_prefix)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    (void)ctx;
    std::string line = to_hex(record.value);
    line.push_back('\n');
    std::lock_guard<std::mutex> lock(mu_);
    out_ += line;
  }

  void finish(engine::Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    ctx.local_store().write_file(out_prefix_ + "node" + std::to_string(ctx.node()),
                                 out_);
  }

 private:
  const std::string out_prefix_;
  std::mutex mu_;  // distinct bins process concurrently
  std::string out_;
};

}  // namespace

engine::FlowletFactory make_scan_loader(std::shared_ptr<const ScanCompiled> c) {
  return [c] { return std::make_unique<RowScanLoader>(c); };
}

engine::FlowletFactory make_cached_scan_loader(
    std::shared_ptr<const ScanCompiled> c,
    std::shared_ptr<const cache::Dataset> dataset) {
  return [c, dataset] {
    return std::make_unique<CachedRowScanLoader>(c, dataset);
  };
}

engine::FlowletFactory make_fused_map(std::shared_ptr<const MapCompiled> c) {
  return [c] { return std::make_unique<FusedMap>(c); };
}

engine::FlowletFactory make_join(std::shared_ptr<const JoinCompiled> c) {
  return [c] { return std::make_unique<JoinFlowlet>(c); };
}

engine::FlowletFactory make_group_by(std::shared_ptr<const GroupCompiled> g,
                                     EmitSpec emit) {
  return [g, emit] { return std::make_unique<GroupByFlowlet>(g, emit); };
}

engine::FlowletFactory make_sink(std::string out_prefix) {
  return [out_prefix] { return std::make_unique<SinkFlowlet>(out_prefix); };
}

}  // namespace hamr::query

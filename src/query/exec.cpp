#include "query/exec.h"

#include <algorithm>
#include <deque>
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

const Row* RowPipeline::apply(const Row& row, std::vector<Row>* scratch) const {
  if (scratch->size() < steps.size()) scratch->resize(steps.size());
  const Row* cur = &row;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    if (step.is_filter) {
      if (!eval_predicate(step.pred, *cur)) return nullptr;
      continue;
    }
    // Copy-assign into a row distinct from the source: cells keep their
    // string capacity across calls, and a column may appear twice.
    Row& out = (*scratch)[i];
    out.resize(step.cols.size());
    for (size_t j = 0; j < step.cols.size(); ++j) out[j] = (*cur)[step.cols[j]];
    cur = &out;
  }
  return cur;
}

// --- per-thread operator scratch -------------------------------------------

namespace {

// Reused buffers for one operator invocation. Frames live per thread, one
// per nesting level: a fused consumer runs inside its producer's ctx.emit()
// on the same thread, so each level leases the next frame and never touches
// the buffers its caller is still reading. Steady state allocates nothing.
struct Scratch {
  ByteBuffer key;
  ByteBuffer value;
  Row row;
  Row joined;
  std::vector<Row> rows;
  std::vector<Row> right_rows;
  std::vector<Row> steps;  // RowPipeline::apply projection outputs
  std::vector<std::string_view> views;
  std::vector<std::string_view> right_views;
};

class ScratchLease {
 public:
  ScratchLease() {
    if (depth_ == frames_.size()) frames_.emplace_back();
    frame_ = &frames_[depth_++];
  }
  ~ScratchLease() { --depth_; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Scratch* operator->() const { return frame_; }

 private:
  // deque: frames never move when a deeper level is added.
  static thread_local std::deque<Scratch> frames_;
  static thread_local size_t depth_;
  Scratch* frame_;
};

thread_local std::deque<Scratch> ScratchLease::frames_;
thread_local size_t ScratchLease::depth_ = 0;

}  // namespace

// --- aggregate state codec -------------------------------------------------

namespace {

bool value_less(const Value& a, const Value& b) {
  switch (a.type) {
    case ColType::kI64: return a.i < b.i;
    case ColType::kF64: return a.f < b.f;
    case ColType::kStr: return a.s < b.s;
  }
  return false;
}

}  // namespace

void GroupCompiled::state_of_row(const Row& row, serde::Writer* writer) const {
  for (const AggSpec& agg : aggs) {
    switch (agg.kind) {
      case AggKind::kCount:
        writer->put_varint(1);
        break;
      case AggKind::kSum: {
        const Value& v = row[agg.col];
        if (v.type == ColType::kI64) {
          writer->put_fixed64(static_cast<uint64_t>(v.i));
        } else {
          writer->put_double(v.as_f64());
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax:
        encode_value(row[agg.col], row[agg.col].type, writer);
        break;
    }
  }
}

void GroupCompiled::merge_states(std::string_view a, std::string_view b,
                                 serde::Writer* writer) const {
  serde::Reader ra(a), rb(b);
  for (const AggSpec& agg : aggs) {
    switch (agg.kind) {
      case AggKind::kCount:
        writer->put_varint(ra.get_varint() + rb.get_varint());
        break;
      case AggKind::kSum: {
        const ColType t = in_schema.cols[agg.col].type;
        if (t == ColType::kI64) {
          writer->put_fixed64(ra.get_fixed64() + rb.get_fixed64());
        } else {
          writer->put_double(ra.get_double() + rb.get_double());
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        // Reused cells: merge never calls out, so one pair per thread.
        thread_local Value va, vb;
        const ColType t = in_schema.cols[agg.col].type;
        decode_value(t, &ra, &va);
        decode_value(t, &rb, &vb);
        const bool b_less = value_less(vb, va);
        const bool take_b = agg.kind == AggKind::kMin
                                ? b_less
                                : (!b_less && !(va == vb));
        encode_value(take_b ? vb : va, t, writer);
        break;
      }
    }
  }
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
        out.emplace_back();
        decode_value(in_schema.cols[agg.col].type, &reader, &out.back());
        break;
    }
  }
  return out;
}

// --- emit spec -------------------------------------------------------------

void EmitSpec::emit_row(const Row& row, engine::Context& ctx) const {
  ScratchLease scratch;
  ByteBuffer& key = scratch->key;
  ByteBuffer& value = scratch->value;
  key.clear();
  value.clear();
  serde::Writer kw(key);
  serde::Writer vw(value);
  switch (mode) {
    case Mode::kLocalRow:
      // The edge is local: the record stays on this node regardless of key.
      schema.encode_row(row, &vw);
      break;
    case Mode::kJoinSide:
      encode_key(row, key_cols, &kw);
      vw.put_u8(side);
      schema.encode_row(row, &vw);
      break;
    case Mode::kGroupState:
      encode_key(row, group->key_cols, &kw);
      group->state_of_row(row, &vw);
      break;
  }
  ctx.emit(0, key.view(), value.view());
}

void EmitSpec::emit_joined(std::string_view left, std::string_view right,
                           engine::Context& ctx) const {
  ScratchLease scratch;
  ByteBuffer& value = scratch->value;
  value.clear();
  value.append(left);
  value.append(right);
  ctx.emit(0, std::string_view(), value.view());
}

// --- flowlets --------------------------------------------------------------

namespace {

// Decodes one staged row block into the frame's rows and emits every row
// the pipeline keeps; returns the block's row count.
size_t scan_block(const ScanCompiled& c, std::string_view block,
                  const ScratchLease& scratch, engine::Context& ctx) {
  c.table_schema.decode_row_block(block, &scratch->rows);
  for (const Row& row : scratch->rows) {
    if (const Row* out = c.pipeline.apply(row, &scratch->steps)) {
      c.emit.emit_row(*out, ctx);
    }
  }
  return scratch->rows.size();
}

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
    // by the sort run loader), batch-decoding each block in one pass into
    // the frame's reused rows.
    ScratchLease scratch;
    uint64_t produced = 0;
    while (produced < c_->rows_per_chunk && pos < shard.size()) {
      scratch->views.clear();
      if (serde::get_framed_run(shard, &pos, 1, &scratch->views) == 0) break;
      produced += scan_block(*c_, scratch->views[0], scratch, ctx);
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
    ScratchLease scratch;
    while (produced < c_->rows_per_chunk &&
           (more = cache::next_record(shard, &sc, &key, &block))) {
      produced += scan_block(*c_, block, scratch, ctx);
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
    ScratchLease scratch;
    c_->in_schema.decode_row(record.value, &scratch->row);
    if (const Row* out = c_->pipeline.apply(scratch->row, &scratch->steps)) {
      c_->emit.emit_row(*out, ctx);
    }
  }

 private:
  const std::shared_ptr<const MapCompiled> c_;
};

// Inner equi-join: both sides shuffle on the encoded key, so one reduce call
// sees every row of one key from both sides and emits the cross product.
// Every side row is decoded exactly once per call (which also validates
// it). A local-row consumer receives each joined row as the concatenation
// of the two encoded rows (row.h's contract), never re-encoded; a key or
// state consumer gets a joined Row built in place per pair.
class JoinFlowlet : public engine::ReduceFlowlet {
 public:
  explicit JoinFlowlet(std::shared_ptr<const JoinCompiled> c)
      : c_(std::move(c)) {}

  void reduce(std::string_view key,
              const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    (void)key;
    ScratchLease scratch;
    const bool by_bytes = c_->emit.mode == EmitSpec::Mode::kLocalRow;
    std::vector<std::string_view>& left = scratch->views;
    std::vector<std::string_view>& right = scratch->right_views;
    left.clear();
    right.clear();
    size_t nl = 0, nr = 0;
    for (std::string_view v : values) {
      if (v.empty()) throw serde::DecodeError("empty join value");
      const bool is_left = static_cast<uint8_t>(v.front()) == 0;
      const std::string_view bytes = v.substr(1);
      (is_left ? left : right).push_back(bytes);
      std::vector<Row>& rows = is_left ? scratch->rows : scratch->right_rows;
      size_t& n = is_left ? nl : nr;
      if (n == rows.size()) rows.emplace_back();
      const Schema& schema = is_left ? c_->left_schema : c_->right_schema;
      schema.decode_row(bytes, &rows[n]);
      if (!by_bytes) ++n;  // byte-level emits need the row validated only
    }
    if (by_bytes) {
      for (std::string_view l : left) {
        for (std::string_view r : right) c_->emit.emit_joined(l, r, ctx);
      }
      return;
    }
    const size_t lw = c_->left_schema.size();
    Row& joined = scratch->joined;
    joined.resize(lw + c_->right_schema.size());
    for (size_t i = 0; i < nl; ++i) {
      std::copy(scratch->rows[i].begin(), scratch->rows[i].end(),
                joined.begin());
      for (size_t j = 0; j < nr; ++j) {
        std::copy(scratch->right_rows[j].begin(), scratch->right_rows[j].end(),
                  joined.begin() + static_cast<std::ptrdiff_t>(lw));
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
    if (acc.empty()) {
      acc.assign(value.data(), value.size());
      return;
    }
    // Merge into per-thread scratch (merge reads acc), then copy back into
    // acc's existing capacity. fold never calls out, so one buffer suffices.
    thread_local ByteBuffer merged;
    merged.clear();
    serde::Writer writer(merged);
    g_->merge_states(acc, value, &writer);
    const std::string_view bytes = merged.view();
    acc.assign(bytes.data(), bytes.size());
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
    std::lock_guard<std::mutex> lock(mu_);
    append_hex(record.value, &out_);
    out_.push_back('\n');
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

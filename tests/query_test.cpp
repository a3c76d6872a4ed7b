// Differential tests for the relational query layer (DESIGN.md §13).
//
// The in-memory reference evaluator is the spec; the engine path (stage →
// lower → flowlet DAG → collect) must produce byte-identical results after
// canonicalization (sorted encoded rows). Every generated query draws from
// value domains where aggregation is order-independent (see testgen.h), so
// any divergence is a real lowering or operator bug, not float noise.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/common.h"
#include "common/metrics.h"
#include "query/exec.h"
#include "query/planner.h"
#include "query/reference.h"
#include "query/testgen.h"
#include "service/job_service.h"

namespace {

using namespace hamr;
using namespace hamr::query;

constexpr uint64_t kSeedsPerFamily = 8;

Value V(int64_t v) { return Value::of(v); }
Value V(double v) { return Value::of(v); }
Value V(const char* v) { return Value::of(std::string(v)); }

// One shared 4-node engine for the whole suite; each query uses a distinct
// tag so staged inputs and sink files never collide.
class QueryDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new apps::BenchEnv(apps::BenchEnv::fast(4));
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  // Runs `plan` on both paths and asserts byte-identical canonical rows.
  static void expect_differential_match(const Plan& plan,
                                        const Catalog& catalog,
                                        const std::string& tag) {
    const Schema schema = output_schema(plan, catalog);
    const auto ref = canonical(schema, reference_eval(plan, catalog));
    const auto got =
        canonical(schema, run_on_engine(*env_->engine, plan, catalog, tag));
    ASSERT_EQ(got.size(), ref.size()) << tag;
    EXPECT_EQ(got, ref) << tag;
  }

  static void run_family(Family family) {
    for (uint64_t seed = 0; seed < kSeedsPerFamily; ++seed) {
      GeneratedQuery q = generate_query(family, seed);
      const std::string tag =
          std::string(family_name(family)) + "_" + std::to_string(seed);
      SCOPED_TRACE(tag);
      expect_differential_match(*q.plan, q.catalog, tag);
    }
  }

  static apps::BenchEnv* env_;
};

apps::BenchEnv* QueryDifferential::env_ = nullptr;

TEST_F(QueryDifferential, ScanFilterMatchesReference) {
  run_family(Family::kScanFilter);
}

TEST_F(QueryDifferential, ProjectMatchesReference) {
  run_family(Family::kProject);
}

TEST_F(QueryDifferential, JoinMatchesReference) { run_family(Family::kJoin); }

TEST_F(QueryDifferential, GroupByMatchesReference) {
  run_family(Family::kGroupBy);
}

TEST_F(QueryDifferential, JoinGroupByMatchesReference) {
  run_family(Family::kJoinGroupBy);
}

TEST_F(QueryDifferential, JoinFilterMatchesReference) {
  run_family(Family::kJoinFilter);
  // The family checks rows that pass filters pushed below a join, so most
  // of its seeds must keep some.
  uint64_t kept = 0;
  for (uint64_t seed = 0; seed < kSeedsPerFamily; ++seed) {
    GeneratedQuery q = generate_query(Family::kJoinFilter, seed);
    kept += reference_eval(*q.plan, q.catalog).empty() ? 0 : 1;
  }
  EXPECT_GE(kept, kSeedsPerFamily / 2);
}

// ---- Targeted edge cases ---------------------------------------------------

Table three_col_table() {
  Table t;
  t.schema.cols = {{"k", ColType::kI64}, {"v", ColType::kF64},
                   {"s", ColType::kStr}};
  return t;
}

TEST_F(QueryDifferential, EmptyInputFlowsThroughEveryOperator) {
  Catalog catalog;
  catalog.tables["t1"] = three_col_table();  // zero rows
  catalog.tables["t2"] = three_col_table();

  PlanPtr plan = group_by(
      hash_join(filter(scan("t1"), Expr::cmp(0, CmpOp::kGt, V(int64_t{0}))),
                scan("t2"), 0, 0),
      {0}, {{AggKind::kCount, 0}, {AggKind::kSum, 1}});
  expect_differential_match(*plan, catalog, "edge_empty_input");
}

TEST_F(QueryDifferential, AllRowsFilteredOut) {
  Catalog catalog;
  Table t = three_col_table();
  for (int64_t i = 0; i < 64; ++i) {
    t.rows.push_back({V(i), V(static_cast<double>(i) / 16.0), V("x")});
  }
  catalog.tables["t1"] = std::move(t);

  // No row satisfies k < -1, so the group-by above sees nothing.
  PlanPtr plan =
      group_by(filter(scan("t1"), Expr::cmp(0, CmpOp::kLt, V(int64_t{-1}))),
               {2}, {{AggKind::kCount, 0}});
  const Schema schema = output_schema(*plan, catalog);
  EXPECT_TRUE(reference_eval(*plan, catalog).empty());
  expect_differential_match(*plan, catalog, "edge_all_filtered");
}

TEST_F(QueryDifferential, JoinWithNoMatches) {
  Catalog catalog;
  Table left = three_col_table();
  Table right = three_col_table();
  for (int64_t i = 0; i < 32; ++i) {
    left.rows.push_back({V(i), V(0.5), V("l")});
    right.rows.push_back({V(i + 1000), V(1.5), V("r")});  // disjoint keys
  }
  catalog.tables["t1"] = std::move(left);
  catalog.tables["t2"] = std::move(right);

  PlanPtr plan = hash_join(scan("t1"), scan("t2"), 0, 0);
  EXPECT_TRUE(reference_eval(*plan, catalog).empty());
  expect_differential_match(*plan, catalog, "edge_join_no_match");
}

TEST_F(QueryDifferential, MultiColumnJoinKeysComposeViaEncodeKey) {
  // Join on (i64, str) key tuples: rows must match only when BOTH columns
  // agree. Shared c0 values with differing c2 strings probe the composed
  // encode_key - a join that compared only the first column would produce
  // extra rows, a concatenation without self-describing framing could
  // confuse ("ab","c") with ("a","bc").
  Catalog catalog;
  Table left = three_col_table();
  Table right = three_col_table();
  for (int64_t i = 0; i < 48; ++i) {
    left.rows.push_back(
        {V(i % 8), V(static_cast<double>(i) / 16.0), V(i % 2 ? "ab" : "a")});
    right.rows.push_back(
        {V(i % 8), V(static_cast<double>(i) / 8.0), V(i % 3 ? "b" : "ab")});
  }
  catalog.tables["t1"] = std::move(left);
  catalog.tables["t2"] = std::move(right);

  PlanPtr plan = hash_join(scan("t1"), scan("t2"),
                           std::vector<uint32_t>{0, 2},
                           std::vector<uint32_t>{0, 2});
  const auto rows = reference_eval(*plan, catalog);
  ASSERT_FALSE(rows.empty());  // ("ab" x "ab") pairs exist by construction
  expect_differential_match(*plan, catalog, "edge_multicol_join");
}

TEST_F(QueryDifferential, SingleHotGroupByKey) {
  // Every row lands in one group: the whole fold funnels through a single
  // FlatAccTable slot on one node, and the sender-side combiner has maximal
  // opportunity to pre-merge - any non-commutative state bug shows up here.
  Catalog catalog;
  Table t = three_col_table();
  for (int64_t i = 0; i < 500; ++i) {
    t.rows.push_back(
        {V(int64_t{7}), V(static_cast<double>(i % 40) / 16.0), V("hot")});
  }
  catalog.tables["t1"] = std::move(t);

  PlanPtr plan = group_by(scan("t1"), {0},
                          {{AggKind::kCount, 0},
                           {AggKind::kSum, 1},
                           {AggKind::kMin, 1},
                           {AggKind::kMax, 2}});
  ASSERT_EQ(reference_eval(*plan, catalog).size(), 1u);
  expect_differential_match(*plan, catalog, "edge_hot_key");
}

// ---- Row and buffer reuse --------------------------------------------------
//
// Operators decode into reused rows and encode into reused per-thread
// buffers. These plans cover the shapes where reuse could alias: projections
// that repeat and reorder string columns (an output cell must never share
// storage with, or be moved out of, a cell a later column still reads),
// stacked projections, and a join whose output runs through a fused
// filter/project into the sink, so emits nest inside emits on one thread.

// k (i64), v (f64), s and u (strings of varying lengths, some past the
// small-string buffer, so reused cells both grow and shrink).
Table two_string_table(int64_t rows, int64_t key_mod, const std::string& tag) {
  Table t;
  t.schema.cols = {{"k", ColType::kI64}, {"v", ColType::kF64},
                   {"s", ColType::kStr}, {"u", ColType::kStr}};
  for (int64_t i = 0; i < rows; ++i) {
    t.rows.push_back(
        {V(i % key_mod), V(static_cast<double>(i % 40) / 16.0),
         Value::of(tag + std::string(static_cast<size_t>(i % 5) * 9, 'x') +
                   std::to_string(i)),
         Value::of(std::to_string(i * i % 97))});
  }
  return t;
}

Catalog reuse_catalog() {
  Catalog catalog;
  catalog.tables["t1"] = two_string_table(300, 23, "left-");
  catalog.tables["t2"] = two_string_table(120, 17, "r");
  return catalog;
}

TEST_F(QueryDifferential, RepeatedAndReorderedProjectionsMatchReference) {
  const Catalog catalog = reuse_catalog();
  // Loader-fused: the projection runs inside the scan's task body.
  expect_differential_match(*project(scan("t1"), {2, 0, 2}), catalog,
                            "reuse_scan_repeat");
  expect_differential_match(
      *project(filter(scan("t1"), Expr::cmp(3, CmpOp::kLt, V("5"))),
               {3, 2, 3, 1, 2}),
      catalog, "reuse_scan_filter_repeat");
  expect_differential_match(
      *project(project(scan("t1"), {3, 2, 2}), {2, 0, 1, 0}), catalog,
      "reuse_scan_stacked");
  // Above a join: a fused map reads the joined row (t1 cols 0-3, t2 cols
  // 4-7) that the join handed over as concatenated encoded rows.
  expect_differential_match(
      *project(hash_join(scan("t1"), scan("t2"), 0, 0), {6, 2, 0, 2, 6}),
      catalog, "reuse_join_repeat");
  expect_differential_match(
      *project(project(hash_join(scan("t1"), scan("t2"), 0, 0), {7, 6, 2}),
               {1, 1, 0, 2}),
      catalog, "reuse_join_stacked");
}

TEST_F(QueryDifferential, JoinFeedingKeyAndStateConsumersMatchesReference) {
  const Catalog catalog = reuse_catalog();
  // Join -> group-by: the joined row is built in a reused Row per pair and
  // encoded as group key + state.
  expect_differential_match(
      *group_by(hash_join(scan("t1"), scan("t2"), 0, 0), {2, 6},
                {{AggKind::kCount, 0},
                 {AggKind::kSum, 1},
                 {AggKind::kMin, 7},
                 {AggKind::kMax, 3}}),
      catalog, "reuse_join_group");
  // Join -> join: the inner join's output is a side row of the outer one.
  expect_differential_match(
      *hash_join(hash_join(scan("t1"), scan("t2"), 0, 0), scan("t2"), 4, 0),
      catalog, "reuse_join_join");
  // Join -> fused project -> group-by: a repeated string column projected
  // above the join, then grouped.
  expect_differential_match(
      *group_by(project(hash_join(scan("t1"), scan("t2"), 0, 0),
                        {6, 0, 2, 6}),
                {0, 3}, {{AggKind::kCount, 0}, {AggKind::kMax, 2}}),
      catalog, "reuse_join_project_group");
}

TEST_F(QueryDifferential, JoinThenFusedFilterProjectNestsEmitsIntoSink) {
  // scan -> join -> fused filter/project -> sink: the join emits into the
  // fused map, which emits into the fused sink, all on one worker thread -
  // each level must encode into its own buffers.
  const Catalog catalog = reuse_catalog();
  // The OR reads both join inputs, so push_down keeps the filter above the
  // join, in the fused map.
  auto joined_chain = [] {
    return project(
        filter(hash_join(scan("t1"), scan("t2"), 0, 0),
               Expr::or_of({Expr::cmp(3, CmpOp::kLt, V("6")),
                            Expr::cmp(5, CmpOp::kLe, V(1.5))})),
        {6, 0, 2, 6, 5});
  };
  PlanPtr plan = joined_chain();
  ASSERT_FALSE(reference_eval(*plan, catalog).empty());
  expect_differential_match(*plan, catalog, "reuse_join_filter_project");
  // The same chain with a group-by stacked on top and a filter/project
  // above that: two fused maps, each nesting emits in its own stage.
  PlanPtr grouped = project(
      filter(group_by(joined_chain(), {0},
                      {{AggKind::kCount, 0}, {AggKind::kMin, 2}}),
             Expr::cmp(1, CmpOp::kGe, V(int64_t{1}))),
      {2, 0, 2, 1});
  expect_differential_match(*grouped, catalog, "reuse_group_filter_project");
}

// Records the port-0 emissions of an operator driven outside the engine.
class RecordingContext : public engine::Context {
 public:
  void emit(uint32_t, std::string_view key, std::string_view value) override {
    emitted.emplace_back(std::string(key), std::string(value));
  }
  void emit_to_node(uint32_t, engine::NodeId, std::string_view,
                    std::string_view) override {
    ADD_FAILURE() << "unexpected emit_to_node";
  }
  void emit_broadcast(uint32_t, std::string_view, std::string_view) override {
    ADD_FAILURE() << "unexpected emit_broadcast";
  }
  engine::NodeId node() const override { return 0; }
  uint32_t num_nodes() const override { return 1; }
  uint32_t num_out_ports() const override { return 1; }
  kv::KvStore& kv() override { throw std::logic_error("no kv"); }
  storage::FileStore& local_store() override {
    throw std::logic_error("no store");
  }
  Metrics& metrics() override { return metrics_; }
  bool stream_stopping() const override { return false; }

  std::vector<std::pair<std::string, std::string>> emitted;

 private:
  Metrics metrics_;
};

// Runs one nested emit_row from inside the first emit(), as a fused
// consumer does, and only then records the outer emit's views.
class ReentrantContext : public RecordingContext {
 public:
  ReentrantContext(const EmitSpec& inner, Row inner_row)
      : inner_(inner), inner_row_(std::move(inner_row)) {}

  void emit(uint32_t port, std::string_view key,
            std::string_view value) override {
    if (!nested_) {
      nested_ = true;
      inner_.emit_row(inner_row_, *this);
    }
    RecordingContext::emit(port, key, value);
  }

 private:
  const EmitSpec& inner_;
  const Row inner_row_;
  bool nested_ = false;
};

TEST(QueryOperators, NestedEmitsEncodeIntoTheirOwnBuffers) {
  // The outer emit's key and value views must survive a nested encode
  // until the outer ctx.emit() returns: each nesting level has its own
  // scratch buffers.
  const Table t = two_string_table(2, 5, "a-string-longer-than-sso-");
  EmitSpec outer;
  outer.mode = EmitSpec::Mode::kJoinSide;
  outer.schema = t.schema;
  outer.key_cols = {2, 0};
  outer.side = 1;
  EmitSpec inner;
  inner.schema = t.schema;  // kLocalRow

  ReentrantContext ctx(inner, t.rows[1]);
  outer.emit_row(t.rows[0], ctx);
  ASSERT_EQ(ctx.emitted.size(), 2u);
  EXPECT_EQ(ctx.emitted[0].first, "");
  EXPECT_EQ(ctx.emitted[0].second, t.schema.encode_row(t.rows[1]));
  EXPECT_EQ(ctx.emitted[1].first, encode_key(t.rows[0], {2, 0}));
  EXPECT_EQ(ctx.emitted[1].second, '\1' + t.schema.encode_row(t.rows[0]));
}

// Drives a join flowlet's reduce() over one key group directly.
void run_join_group(const JoinCompiled& compiled,
                    const std::vector<std::string>& values,
                    RecordingContext* ctx) {
  auto flowlet = make_join(std::make_shared<const JoinCompiled>(compiled))();
  auto* join = dynamic_cast<engine::ReduceFlowlet*>(flowlet.get());
  ASSERT_NE(join, nullptr);
  const std::vector<std::string_view> views(values.begin(), values.end());
  join->reduce("key", views, *ctx);
}

TEST(QueryOperators, JoinEmitsConcatenatedRowsAndRejectsTruncatedSideRows) {
  const Table left = two_string_table(3, 1, "l");
  const Table right = two_string_table(2, 1, "right-side-");
  JoinCompiled local;
  local.left_schema = left.schema;
  local.right_schema = right.schema;
  local.emit.schema.cols = left.schema.cols;
  local.emit.schema.cols.insert(local.emit.schema.cols.end(),
                                right.schema.cols.begin(),
                                right.schema.cols.end());
  JoinCompiled grouped = local;
  auto g = std::make_shared<GroupCompiled>();
  g->key_cols = {2};
  g->aggs = {{AggKind::kCount, 0}};
  g->in_schema = local.emit.schema;
  grouped.emit.mode = EmitSpec::Mode::kGroupState;
  grouped.emit.group = g;

  std::vector<std::string> values;
  for (const Row& r : left.rows) {
    values.push_back('\0' + left.schema.encode_row(r));
  }
  for (const Row& r : right.rows) {
    values.push_back('\1' + right.schema.encode_row(r));
  }

  // A local-row consumer receives left ‖ right, byte-identical to encoding
  // the joined row, for every pair in left-major order.
  RecordingContext ctx;
  run_join_group(local, values, &ctx);
  ASSERT_EQ(ctx.emitted.size(), left.rows.size() * right.rows.size());
  size_t i = 0;
  for (const Row& l : left.rows) {
    for (const Row& r : right.rows) {
      Row joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      EXPECT_EQ(ctx.emitted[i].second, local.emit.schema.encode_row(joined));
      EXPECT_EQ(local.emit.schema.decode_row(ctx.emitted[i].second), joined);
      ++i;
    }
  }

  // Every side row is decoded, so a truncated one fails the reduce with a
  // DecodeError on both output paths - including when it is the last value
  // and the other side has already been seen.
  for (const JoinCompiled* compiled : {&local, &grouped}) {
    for (size_t bad : {size_t{0}, values.size() - 1}) {
      std::vector<std::string> truncated = values;
      truncated[bad].resize(truncated[bad].size() - 2);
      RecordingContext fail_ctx;
      EXPECT_THROW(run_join_group(*compiled, truncated, &fail_ctx),
                   serde::DecodeError);
    }
  }
}

// ---- Service path ----------------------------------------------------------

// The same differential contract holds when the query is submitted through
// the multi-tenant JobService instead of run directly on an Engine — and two
// concurrent queries on separate lanes must not cross wires.
TEST(QueryService, ConcurrentQueriesMatchReferenceThroughJobService) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(4, 2));
  service::ServiceConfig svc_cfg;
  svc_cfg.lanes = 2;
  svc_cfg.engine = engine::EngineConfig::fast();
  service::JobService jobs(cluster, svc_cfg);

  GeneratedQuery q1 = generate_query(Family::kJoinGroupBy, 101);
  GeneratedQuery q2 = generate_query(Family::kGroupBy, 202);

  SubmittedQuery s1 = submit_query(jobs, cluster, *q1.plan, q1.catalog,
                                   service::JobSpec{}, "svc_q1");
  SubmittedQuery s2 = submit_query(jobs, cluster, *q2.plan, q2.catalog,
                                   service::JobSpec{}, "svc_q2");

  ASSERT_EQ(s1.ticket->wait(), service::JobStatus::kDone);
  ASSERT_EQ(s2.ticket->wait(), service::JobStatus::kDone);

  const auto got1 = canonical(
      s1.out_schema, decode_payload(s1.out_schema, s1.ticket->payload()));
  const auto got2 = canonical(
      s2.out_schema, decode_payload(s2.out_schema, s2.ticket->payload()));
  EXPECT_EQ(got1, canonical(s1.out_schema, reference_eval(*q1.plan, q1.catalog)));
  EXPECT_EQ(got2, canonical(s2.out_schema, reference_eval(*q2.plan, q2.catalog)));
}

// ---- push_down -------------------------------------------------------------
//
// lower_ir runs push_down(plan); reference_eval runs the plan as written, so
// the differential suite above checks the rewrite's semantics. These tests
// pin its shapes.

const std::vector<Family> kAllFamilies = {
    Family::kScanFilter, Family::kProject,     Family::kJoin,
    Family::kGroupBy,    Family::kJoinGroupBy, Family::kJoinFilter};

// Column names and types, in order.
std::vector<std::pair<std::string, ColType>> columns(const Schema& schema) {
  std::vector<std::pair<std::string, ColType>> out;
  for (const Column& c : schema.cols) out.emplace_back(c.name, c.type);
  return out;
}

// Bit 0: the expression reads a left column; bit 1: a right column.
int sides_read(const Expr& e, uint32_t left_width) {
  int sides = e.kind == Expr::Kind::kCmp ? (e.col < left_width ? 1 : 2) : 0;
  for (const Expr& c : e.children) sides |= sides_read(c, left_width);
  return sides;
}

// Every filter directly above a join holds only conjuncts that read both of
// its inputs; the conjunct list is the flattened top-level AND.
void expect_no_one_sided_conjunct_above_a_join(const Plan& plan,
                                               const Catalog& catalog) {
  if (plan.kind == Plan::Kind::kFilter &&
      plan.child->kind == Plan::Kind::kJoin) {
    const auto left_width = static_cast<uint32_t>(
        output_schema(*plan.child->child, catalog).size());
    const bool is_and = plan.pred.kind == Expr::Kind::kAnd;
    const std::vector<Expr> conjuncts =
        is_and ? plan.pred.children : std::vector<Expr>{plan.pred};
    for (const Expr& c : conjuncts) {
      EXPECT_NE(c.kind, Expr::Kind::kAnd) << "nested AND not flattened";
      EXPECT_EQ(sides_read(c, left_width), 3);
    }
  }
  if (plan.child) expect_no_one_sided_conjunct_above_a_join(*plan.child, catalog);
  if (plan.right) expect_no_one_sided_conjunct_above_a_join(*plan.right, catalog);
}

TEST(QueryPushDown, KeepsOutputSchemaForEveryFamilyAndSeed) {
  for (Family family : kAllFamilies) {
    for (uint64_t seed = 0; seed < kSeedsPerFamily; ++seed) {
      GeneratedQuery q = generate_query(family, seed);
      SCOPED_TRACE(std::string(family_name(family)) + "_" + std::to_string(seed));
      const PlanPtr rewritten = push_down(*q.plan, q.catalog);
      EXPECT_EQ(columns(output_schema(*rewritten, q.catalog)),
                columns(output_schema(*q.plan, q.catalog)));
      expect_no_one_sided_conjunct_above_a_join(*rewritten, q.catalog);
    }
  }
}

// store_sales(ss_item_sk, ss_customer_sk, ss_quantity, ss_sales_price) and
// item(i_item_sk, i_category, i_price), as in bench/query_bigbench.cpp.
Catalog bigbench_catalog() {
  Catalog catalog;
  catalog.tables["store_sales"].schema.cols = {
      {"ss_item_sk", ColType::kI64},
      {"ss_customer_sk", ColType::kI64},
      {"ss_quantity", ColType::kI64},
      {"ss_sales_price", ColType::kF64}};
  catalog.tables["item"].schema.cols = {{"i_item_sk", ColType::kI64},
                                        {"i_category", ColType::kStr},
                                        {"i_price", ColType::kF64}};
  return catalog;
}

TEST(QueryPushDown, BigBenchQ3FiltersRunOnTheScansBelowTheJoin) {
  const Catalog catalog = bigbench_catalog();
  // Q3: bulk electronics purchases (joined columns: sales 0-3, item 4-6).
  const PlanPtr q3 = project(
      filter(hash_join(scan("store_sales"), scan("item"), 0, 0),
             Expr::and_of({Expr::cmp(5, CmpOp::kEq, V("electronics")),
                           Expr::cmp(2, CmpOp::kGt, V(int64_t{90}))})),
      {1, 0, 3});
  const PlanPtr got = push_down(*q3, catalog);

  ASSERT_EQ(got->kind, Plan::Kind::kProject);
  const Plan& join = *got->child;
  ASSERT_EQ(join.kind, Plan::Kind::kJoin) << "a filter stayed above the join";

  // store_sales: quantity > 90 on the scan, then only the columns read above.
  ASSERT_EQ(join.child->kind, Plan::Kind::kProject);
  EXPECT_EQ(join.child->cols, (std::vector<uint32_t>{0, 1, 3}));
  const Plan& sales_filter = *join.child->child;
  ASSERT_EQ(sales_filter.kind, Plan::Kind::kFilter);
  EXPECT_EQ(sales_filter.child->kind, Plan::Kind::kScan);
  EXPECT_EQ(sales_filter.child->table, "store_sales");
  EXPECT_EQ(sales_filter.pred.kind, Expr::Kind::kCmp);
  EXPECT_EQ(sales_filter.pred.col, 2u);
  EXPECT_EQ(sales_filter.pred.op, CmpOp::kGt);
  EXPECT_EQ(sales_filter.pred.literal, V(int64_t{90}));

  // item: category = electronics on the scan; only the join key goes on.
  ASSERT_EQ(join.right->kind, Plan::Kind::kProject);
  EXPECT_EQ(join.right->cols, (std::vector<uint32_t>{0}));
  const Plan& item_filter = *join.right->child;
  ASSERT_EQ(item_filter.kind, Plan::Kind::kFilter);
  EXPECT_EQ(item_filter.child->kind, Plan::Kind::kScan);
  EXPECT_EQ(item_filter.child->table, "item");
  EXPECT_EQ(item_filter.pred.col, 1u);
  EXPECT_EQ(item_filter.pred.literal, V("electronics"));

  EXPECT_EQ(got->cols, (std::vector<uint32_t>{1, 0, 2}));
  EXPECT_EQ(columns(output_schema(*got, catalog)),
            columns(output_schema(*q3, catalog)));
}

TEST(QueryPushDown, BigBenchQ2ShufflesOnlyTheSalesColumnsItReads) {
  const Catalog catalog = bigbench_catalog();
  // Q2: revenue by category.
  const PlanPtr q2 =
      group_by(hash_join(scan("store_sales"), scan("item"), 0, 0), {5},
               {{AggKind::kCount, 0}, {AggKind::kSum, 3}, {AggKind::kMax, 6}});
  const PlanPtr got = push_down(*q2, catalog);

  ASSERT_EQ(got->kind, Plan::Kind::kGroupBy);
  const Plan& join = *got->child;
  ASSERT_EQ(join.kind, Plan::Kind::kJoin);
  ASSERT_EQ(join.child->kind, Plan::Kind::kProject);
  EXPECT_EQ(join.child->child->kind, Plan::Kind::kScan);
  EXPECT_EQ(columns(output_schema(*join.child, catalog)),
            (std::vector<std::pair<std::string, ColType>>{
                {"ss_item_sk", ColType::kI64},
                {"ss_sales_price", ColType::kF64}}));
  // item keeps all three columns, so it gets no project.
  EXPECT_EQ(join.right->kind, Plan::Kind::kScan);
  EXPECT_EQ(got->keys, (std::vector<uint32_t>{3}));
  EXPECT_EQ(got->aggs[1].col, 1u);
  EXPECT_EQ(got->aggs[2].col, 4u);
  EXPECT_EQ(columns(output_schema(*got, catalog)),
            columns(output_schema(*q2, catalog)));
}

TEST(QueryPushDown, OnlyOneSidedConjunctsCrossAJoinAndNoneCrossAGroupBy) {
  Catalog catalog;
  catalog.tables["t1"] = three_col_table();
  catalog.tables["t2"] = three_col_table();
  // Joined columns: t1 0-2, t2 3-5. A filter over a project that swaps the
  // two sides, holding a nested AND of: a NOT over t2 alone, an OR across
  // the sides, and a t1-only comparison.
  const PlanPtr plan = filter(
      project(hash_join(scan("t1"), scan("t2"), 0, 0), {3, 4, 5, 0, 1, 2}),
      Expr::and_of(
          {Expr::not_of(Expr::cmp(2, CmpOp::kEq, V("x"))),
           Expr::and_of({Expr::or_of({Expr::cmp(0, CmpOp::kLt, V(int64_t{3})),
                                      Expr::cmp(3, CmpOp::kGt, V(int64_t{5}))}),
                         Expr::cmp(4, CmpOp::kLe, V(1.5))})}));
  const PlanPtr got = push_down(*plan, catalog);

  ASSERT_EQ(got->kind, Plan::Kind::kProject);  // the filter moved below it
  const Plan& above = *got->child;
  ASSERT_EQ(above.kind, Plan::Kind::kFilter);
  EXPECT_EQ(above.pred.kind, Expr::Kind::kOr);  // the cross-side conjunct
  EXPECT_EQ(above.pred.children[0].col, 3u);    // remapped through the project
  EXPECT_EQ(above.pred.children[1].col, 0u);
  const Plan& join = *above.child;
  ASSERT_EQ(join.kind, Plan::Kind::kJoin);
  ASSERT_EQ(join.child->kind, Plan::Kind::kFilter);
  EXPECT_EQ(join.child->pred.col, 1u);  // t1.v <= 1.5
  ASSERT_EQ(join.right->kind, Plan::Kind::kFilter);
  EXPECT_EQ(join.right->pred.kind, Expr::Kind::kNot);  // NOT t2.s = "x"
  EXPECT_EQ(join.right->pred.children[0].col, 2u);

  // A filter above a group-by stays there, even on a group key.
  const PlanPtr grouped =
      filter(group_by(hash_join(scan("t1"), scan("t2"), 0, 0), {0},
                      {{AggKind::kCount, 0}}),
             Expr::cmp(0, CmpOp::kGt, V(int64_t{1})));
  const PlanPtr kept = push_down(*grouped, catalog);
  ASSERT_EQ(kept->kind, Plan::Kind::kFilter);
  EXPECT_EQ(kept->child->kind, Plan::Kind::kGroupBy);
}

// ---- Plan validation -------------------------------------------------------

TEST(QueryValidation, RejectsMalformedPlans) {
  Catalog catalog;
  Table t;
  t.schema.cols = {{"k", ColType::kI64}, {"s", ColType::kStr}};
  t.rows.push_back({Value::of(int64_t{1}), Value::of(std::string("a"))});
  catalog.tables["t1"] = t;
  catalog.tables["t2"] = t;

  // Unknown table.
  EXPECT_THROW(reference_eval(*scan("missing"), catalog),
               std::invalid_argument);
  // Predicate column out of range.
  EXPECT_THROW(
      reference_eval(
          *filter(scan("t1"), Expr::cmp(9, CmpOp::kEq, Value::of(int64_t{0}))),
          catalog),
      std::invalid_argument);
  // Empty projection.
  EXPECT_THROW(reference_eval(*project(scan("t1"), {}), catalog),
               std::invalid_argument);
  // Join keys of different types (i64 vs str).
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"), 0, 1),
                              catalog),
               std::invalid_argument);
  // Mismatched key-list lengths.
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"),
                                         std::vector<uint32_t>{0, 1},
                                         std::vector<uint32_t>{0}),
                              catalog),
               std::invalid_argument);
  // Empty key lists.
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"),
                                         std::vector<uint32_t>{},
                                         std::vector<uint32_t>{}),
                              catalog),
               std::invalid_argument);
  // Second key pair type-mismatched (first pair fine).
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"),
                                         std::vector<uint32_t>{0, 0},
                                         std::vector<uint32_t>{0, 1}),
                              catalog),
               std::invalid_argument);
  // Sum over a string column.
  EXPECT_THROW(
      reference_eval(*group_by(scan("t1"), {0}, {{AggKind::kSum, 1}}),
                     catalog),
      std::invalid_argument);
  // Group-by with no keys.
  EXPECT_THROW(
      reference_eval(*group_by(scan("t1"), {}, {{AggKind::kCount, 0}}),
                     catalog),
      std::invalid_argument);
}

}  // namespace

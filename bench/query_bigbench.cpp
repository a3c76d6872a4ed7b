// query_bigbench: BigBench-flavored multi-stage relational queries on the
// flowlet engine, submitted through the multi-tenant JobService.
//
// A synthetic retail dataset (store_sales fact table + item dimension) feeds
// four query shapes spanning every operator of the query layer:
//   Q1  filtered group-by        - scan + filter fused into the loaders, one
//                                  shuffle into a combining fold;
//   Q2  join + group-by          - two shuffle stages (the BigBench shape);
//                                  push_down prunes store_sales to the two
//                                  columns read above the join;
//   Q3  join + filter + project  - push_down moves the category predicate
//                                  into the item loader, below the join, so
//                                  only electronics rows are shuffled;
//                                  top-K by price client-side;
//   Q4  filter + project scan    - zero-shuffle, loader-fused.
// Every query is checked against the in-memory reference evaluator before
// its numbers are reported (--verify=0 skips, for large --rows runs).
//
// --metrics_json dumps the merged JobResult metric snapshots (the CI
// bench-smoke artifact); --trace writes Chrome trace_event JSON.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/flags.h"
#include "common/random.h"
#include "obs/metrics_snapshot.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "query/reference.h"
#include "service/job_service.h"

using namespace hamr;
using namespace hamr::query;

namespace {

const char* kCategories[] = {"electronics", "grocery",  "apparel",
                             "furniture",   "sports",   "toys",
                             "garden",      "books"};

// store_sales(ss_item_sk, ss_customer_sk, ss_quantity, ss_sales_price) and
// item(i_item_sk, i_category, i_price). Prices sit on the 1/16 grid so
// distributed float sums are exact in any fold order (see testgen.h).
Catalog make_catalog(uint64_t sales_rows, uint64_t item_rows, uint64_t seed) {
  Rng rng(seed);
  Catalog catalog;

  Table item;
  item.schema.cols = {{"i_item_sk", ColType::kI64},
                      {"i_category", ColType::kStr},
                      {"i_price", ColType::kF64}};
  item.rows.reserve(item_rows);
  for (uint64_t i = 0; i < item_rows; ++i) {
    item.rows.push_back(
        {Value::of(static_cast<int64_t>(i)),
         Value::of(std::string(kCategories[rng.next_below(8)])),
         Value::of(static_cast<double>(rng.next_below(1600)) / 16.0)});
  }
  catalog.tables["item"] = std::move(item);

  Table sales;
  sales.schema.cols = {{"ss_item_sk", ColType::kI64},
                       {"ss_customer_sk", ColType::kI64},
                       {"ss_quantity", ColType::kI64},
                       {"ss_sales_price", ColType::kF64}};
  sales.rows.reserve(sales_rows);
  for (uint64_t i = 0; i < sales_rows; ++i) {
    // Zipf-ish item popularity: half the sales hit the first 1/8 of items.
    const uint64_t item_sk = rng.next_bool(0.5)
                                 ? rng.next_below(std::max<uint64_t>(1, item_rows / 8))
                                 : rng.next_below(item_rows);
    sales.rows.push_back(
        {Value::of(static_cast<int64_t>(item_sk)),
         Value::of(static_cast<int64_t>(rng.next_below(sales_rows / 4 + 1))),
         Value::of(static_cast<int64_t>(1 + rng.next_below(100))),
         Value::of(static_cast<double>(rng.next_below(3200)) / 16.0)});
  }
  catalog.tables["store_sales"] = std::move(sales);
  return catalog;
}

struct QueryRun {
  std::string name;
  PlanPtr plan;
  uint64_t input_rows = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "query_bigbench - BigBench-style queries over the query layer\n"
              "  --rows=N        store_sales rows (100000)\n"
              "  --items=N       item dimension rows (2000)\n"
              "  --nodes=N       cluster nodes (4)\n"
              "  --threads=N     worker threads per node (4)\n"
              "  --lanes=N       executor lanes (2)\n"
              "  --verify=0|1    check against the reference evaluator (1)\n"
              "  --trace=FILE    Chrome trace_event JSON\n"
              "  --metrics_json=FILE  merged metrics JSON ('-' = stdout)\n");
  const uint64_t rows = static_cast<uint64_t>(flags.get_int("rows", 100'000));
  const uint64_t items = static_cast<uint64_t>(flags.get_int("items", 2'000));
  const uint32_t nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));
  const uint32_t threads = static_cast<uint32_t>(flags.get_int("threads", 4));
  const uint32_t lanes = static_cast<uint32_t>(flags.get_int("lanes", 2));
  const bool verify = flags.get_int("verify", 1) != 0;
  const std::string trace_path = flags.get_string("trace", "");
  const std::string metrics_path = flags.get_string("metrics_json", "");

  if (!trace_path.empty()) obs::trace().enable();

  const Catalog catalog = make_catalog(rows, items, /*seed=*/42);
  const uint64_t join_input = rows + items;

  // Column indexes (store_sales: 0..3; joined l.sales + r.item: 0..6).
  constexpr uint32_t kItemSk = 0, kCustomerSk = 1, kQuantity = 2, kPrice = 3;
  constexpr uint32_t kJoinCategory = 5, kJoinItemPrice = 6;

  std::vector<QueryRun> queries;
  // Q1: per-item sales rollup for bulk purchases.
  queries.push_back(
      {"Q1 filter+group_by",
       group_by(filter(scan("store_sales"),
                       Expr::cmp(kQuantity, CmpOp::kGt, Value::of(int64_t{50}))),
                {kItemSk},
                {{AggKind::kCount, 0},
                 {AggKind::kSum, kQuantity},
                 {AggKind::kSum, kPrice}}),
       rows});
  // Q2: revenue by category (the canonical BigBench join+aggregate).
  queries.push_back(
      {"Q2 join+group_by",
       group_by(hash_join(scan("store_sales"), scan("item"), kItemSk, 0),
                {kJoinCategory},
                {{AggKind::kCount, 0},
                 {AggKind::kSum, kPrice},
                 {AggKind::kMax, kJoinItemPrice}}),
       join_input});
  // Q3: electronics purchases, projected; top-K happens client-side below.
  queries.push_back(
      {"Q3 join+filter+project",
       project(filter(hash_join(scan("store_sales"), scan("item"), kItemSk, 0),
                      Expr::cmp(kJoinCategory, CmpOp::kEq,
                                Value::of("electronics"))),
               {kCustomerSk, kItemSk, kPrice}),
       join_input});
  // Q4: high-value line items, loader-fused scan with zero shuffle stages.
  queries.push_back(
      {"Q4 filter+project scan",
       project(filter(scan("store_sales"),
                      Expr::cmp(kPrice, CmpOp::kGe, Value::of(150.0))),
               {kItemSk, kCustomerSk, kPrice}),
       rows});

  cluster::Cluster cluster(cluster::ClusterConfig::fast(nodes, threads));
  service::ServiceConfig svc_cfg;
  svc_cfg.lanes = lanes;
  svc_cfg.engine = engine::EngineConfig::fast();
  service::JobService jobs(cluster, svc_cfg);

  std::printf("query_bigbench: %llu sales x %llu items, %u nodes x %u threads, %u lanes\n\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(items), nodes, threads, lanes);
  std::printf("%-26s %12s %10s %10s %12s %9s\n", "Query", "input rows",
              "out rows", "wall s", "M rows/s", "verified");

  obs::MetricsSnapshot merged;
  std::vector<Row> q3_rows;
  Schema q3_schema;
  bool ok = true;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryRun& q = queries[qi];
    service::JobSpec spec;
    spec.tenant = "bigbench";
    const std::string tag = "bigbench_q" + std::to_string(qi + 1);

    Stopwatch sw;
    SubmittedQuery submitted =
        submit_query(jobs, cluster, *q.plan, catalog, spec, tag);
    const service::JobStatus st =
        submitted.ticket->wait(std::chrono::seconds(600));
    const double wall = sw.elapsed_seconds();
    if (st != service::JobStatus::kDone) {
      std::fprintf(stderr, "%s ended %s: %s\n", q.name.c_str(),
                   service::to_string(st), submitted.ticket->error().c_str());
      ok = false;
      continue;
    }
    const std::vector<Row> out =
        decode_payload(submitted.out_schema, submitted.ticket->payload());

    const char* verdict = "skipped";
    if (verify) {
      const auto want =
          canonical(submitted.out_schema, reference_eval(*q.plan, catalog));
      const bool match = canonical(submitted.out_schema, out) == want;
      verdict = match ? "yes" : "MISMATCH";
      if (!match) ok = false;
    }
    merged.merge_from(submitted.ticket->result().metrics);
    const double mrps = wall > 0 ? q.input_rows / wall / 1e6 : 0;
    std::printf("%-26s %12llu %10zu %10.3f %12.3f %9s\n", q.name.c_str(),
                static_cast<unsigned long long>(q.input_rows), out.size(),
                wall, mrps, verdict);

    if (qi == 2) {  // keep Q3's rows for the client-side top-K
      q3_rows = out;
      q3_schema = submitted.out_schema;
    }
  }

  // Q3 epilogue: top-5 electronics purchases by sales price (sort on the
  // client - ORDER BY ... LIMIT K over a distributed result is a client
  // concern at this scale).
  if (!q3_rows.empty()) {
    std::partial_sort(q3_rows.begin(),
                      q3_rows.begin() + std::min<size_t>(5, q3_rows.size()),
                      q3_rows.end(), [](const Row& a, const Row& b) {
                        return a[2].as_f64() > b[2].as_f64();
                      });
    std::printf("\nQ3 top-5 by price:\n");
    for (size_t i = 0; i < q3_rows.size() && i < 5; ++i) {
      std::printf("  customer %lld item %lld price %.2f\n",
                  static_cast<long long>(q3_rows[i][0].as_i64()),
                  static_cast<long long>(q3_rows[i][1].as_i64()),
                  q3_rows[i][2].as_f64());
    }
  }

  if (!trace_path.empty()) {
    obs::TraceRecorder& tr = obs::trace();
    tr.disable();
    std::ofstream out(trace_path);
    out << tr.drain_to_json();
    std::printf("trace: wrote %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const std::string json = merged.to_json();
    if (metrics_path == "-") {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(metrics_path);
      out << json;
      std::printf("metrics: wrote %s\n", metrics_path.c_str());
    }
  }
  return ok ? 0 : 1;
}

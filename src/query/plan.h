// Logical query plans over named tables (DESIGN.md §13).
//
// The operator set is the relational core the BigBench-style workloads need:
//
//   scan(table)                      - all rows of a catalog table
//   filter(child, pred)              - rows where the predicate holds
//   project(child, cols)             - reorder / drop columns
//   hash_join(left, right, lk, rk)   - inner equi-join on one key column
//   group_by(child, keys, aggs)      - grouped count / sum / min / max
//
// A plan is a tree of owned nodes built with the free functions below.
// output_schema() type-checks the whole tree (column indices in range,
// predicate literal types match, join keys share a type, sums only over
// numeric columns) and computes each operator's output schema - the same
// function drives both the reference evaluator and the flowlet lowering, so
// the two paths cannot disagree about shapes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/row.h"

namespace hamr::query {

struct Table {
  Schema schema;
  std::vector<Row> rows;
};

struct Catalog {
  std::map<std::string, Table> tables;

  // Throws std::invalid_argument on an unknown table.
  const Table& at(const std::string& name) const;
};

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

// Predicate expression: comparisons of a column against a literal of the
// same type, combined with and/or/not.
struct Expr {
  enum class Kind : uint8_t { kCmp, kAnd, kOr, kNot };
  Kind kind = Kind::kCmp;

  // kCmp:
  uint32_t col = 0;
  CmpOp op = CmpOp::kEq;
  Value literal;

  // kAnd/kOr (>= 1 child) and kNot (exactly 1):
  std::vector<Expr> children;

  static Expr cmp(uint32_t col, CmpOp op, Value literal);
  static Expr and_of(std::vector<Expr> children);
  static Expr or_of(std::vector<Expr> children);
  static Expr not_of(Expr child);
};

// Evaluates against a row of the schema the expression was validated for.
bool eval_predicate(const Expr& expr, const Row& row);

// Throws std::invalid_argument when a column is out of range, a literal's
// type differs from its column's, or a node has the wrong child count.
void validate_expr(const Expr& expr, const Schema& schema);

enum class AggKind : uint8_t { kCount, kSum, kMin, kMax };

struct AggSpec {
  AggKind kind = AggKind::kCount;
  uint32_t col = 0;  // ignored for kCount
};

struct Plan {
  enum class Kind : uint8_t { kScan, kFilter, kProject, kJoin, kGroupBy };
  Kind kind = Kind::kScan;

  std::string table;  // kScan

  Expr pred;  // kFilter

  std::vector<uint32_t> cols;  // kProject (non-empty)

  // kFilter/kProject/kGroupBy use child; kJoin uses child (left) + right.
  std::unique_ptr<Plan> child;
  std::unique_ptr<Plan> right;
  // kJoin: equal-length, non-empty key column lists; rows match when every
  // pair of key columns is equal (keys compose via encode_key's
  // self-describing concatenation, so one encoded key covers them all).
  std::vector<uint32_t> left_keys, right_keys;

  std::vector<uint32_t> keys;  // kGroupBy (non-empty)
  std::vector<AggSpec> aggs;   // kGroupBy (non-empty)
};

using PlanPtr = std::unique_ptr<Plan>;

PlanPtr scan(std::string table);
PlanPtr filter(PlanPtr child, Expr pred);
PlanPtr project(PlanPtr child, std::vector<uint32_t> cols);
// Inner join; output = left columns ("l.<name>") then right ("r.<name>").
// Single-column shorthand and the general multi-column form: rows join when
// all key column pairs match (types must agree pairwise).
PlanPtr hash_join(PlanPtr left, PlanPtr right, uint32_t left_key,
                  uint32_t right_key);
PlanPtr hash_join(PlanPtr left, PlanPtr right, std::vector<uint32_t> left_keys,
                  std::vector<uint32_t> right_keys);
// Output = key columns (original names) then one column per aggregate:
// "cnt" (i64), "sum_<col>" (column's numeric type, i64 sums wrap mod 2^64),
// "min_<col>" / "max_<col>" (column's type).
PlanPtr group_by(PlanPtr child, std::vector<uint32_t> keys,
                 std::vector<AggSpec> aggs);

// Validates the tree against the catalog and returns the root's output
// schema. Throws std::invalid_argument on any violation.
Schema output_schema(const Plan& plan, const Catalog& catalog);

// The plan lower_ir runs in place of `plan` (push_down.cpp): each top-level
// AND conjunct of a filter moves below projects and onto the join input
// whose columns it reads (one that reads both inputs stays above the join;
// none crosses a group-by), and each join input is projected down to the
// columns the operators above read. The output schema, names included, is
// `plan`'s. Throws std::invalid_argument like output_schema.
PlanPtr push_down(const Plan& plan, const Catalog& catalog);

// Distinct table names scanned anywhere in the tree, in first-visit order.
std::vector<std::string> scan_tables(const Plan& plan);

}  // namespace hamr::query

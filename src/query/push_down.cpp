// push_down: the plan-to-plan rewrite lower_ir applies before lowering
// (DESIGN.md §13). Two passes over a copy of the tree:
//
//   1. push_filters moves each top-level AND conjunct of a filter as far
//      down as it can go: below projects (indexes remapped through the
//      projection list) and onto the one join input whose columns it reads.
//      A conjunct that reads both join inputs stays above the join, and no
//      conjunct crosses a group-by.
//   2. prune_columns walks the result top-down with the set of output
//      columns the operators above read, narrows projects to that set, and
//      puts a project under each join input that would otherwise carry
//      columns nobody reads. Every index above is remapped.
//
// Both passes keep every operator's output names and types, so the root's
// output_schema is unchanged.
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "query/plan.h"

namespace hamr::query {

namespace {

constexpr uint32_t kDropped = UINT32_MAX;

uint32_t width(const Plan& plan, const Catalog& catalog) {
  return static_cast<uint32_t>(output_schema(plan, catalog).size());
}

// Appends the top-level AND conjuncts of `expr`, nested ANDs flattened.
void split_conjuncts(const Expr& expr, std::vector<Expr>* out) {
  if (expr.kind != Expr::Kind::kAnd) {
    out->push_back(expr);
    return;
  }
  for (const Expr& c : expr.children) split_conjuncts(c, out);
}

template <typename F>
void for_each_col(const Expr& expr, const F& f) {
  if (expr.kind == Expr::Kind::kCmp) f(expr.col);
  for (const Expr& c : expr.children) for_each_col(c, f);
}

template <typename F>
void remap_cols(Expr* expr, const F& f) {
  if (expr->kind == Expr::Kind::kCmp) expr->col = f(expr->col);
  for (Expr& c : expr->children) remap_cols(&c, f);
}

PlanPtr filter_all(PlanPtr child, std::vector<Expr> conjuncts) {
  if (conjuncts.empty()) return child;
  if (conjuncts.size() == 1) {
    return filter(std::move(child), std::move(conjuncts.front()));
  }
  return filter(std::move(child), Expr::and_of(std::move(conjuncts)));
}

// Rebuilds `plan` with `pending` (conjuncts over its output columns, applied
// after its own filters) placed as low as the rules allow.
PlanPtr push_filters(const Plan& plan, std::vector<Expr> pending,
                     const Catalog& catalog) {
  switch (plan.kind) {
    case Plan::Kind::kScan:
      return filter_all(scan(plan.table), std::move(pending));

    case Plan::Kind::kFilter: {
      std::vector<Expr> conjuncts;
      split_conjuncts(plan.pred, &conjuncts);
      for (Expr& e : pending) conjuncts.push_back(std::move(e));
      return push_filters(*plan.child, std::move(conjuncts), catalog);
    }

    case Plan::Kind::kProject:
      for (Expr& e : pending) {
        remap_cols(&e, [&](uint32_t c) { return plan.cols[c]; });
      }
      return project(push_filters(*plan.child, std::move(pending), catalog),
                     plan.cols);

    case Plan::Kind::kJoin: {
      const uint32_t left_width = width(*plan.child, catalog);
      std::vector<Expr> left, right, above;
      for (Expr& e : pending) {
        bool reads_left = false, reads_right = false;
        for_each_col(e, [&](uint32_t c) {
          (c < left_width ? reads_left : reads_right) = true;
        });
        if (reads_left && reads_right) {
          above.push_back(std::move(e));
        } else if (reads_left) {
          left.push_back(std::move(e));
        } else {
          remap_cols(&e, [&](uint32_t c) { return c - left_width; });
          right.push_back(std::move(e));
        }
      }
      return filter_all(
          hash_join(push_filters(*plan.child, std::move(left), catalog),
                    push_filters(*plan.right, std::move(right), catalog),
                    plan.left_keys, plan.right_keys),
          std::move(above));
    }

    case Plan::Kind::kGroupBy:
      return filter_all(group_by(push_filters(*plan.child, {}, catalog),
                                 plan.keys, plan.aggs),
                        std::move(pending));
  }
  throw std::invalid_argument("unknown plan kind");
}

std::vector<uint32_t> identity(uint32_t n) {
  std::vector<uint32_t> map(n);
  for (uint32_t i = 0; i < n; ++i) map[i] = i;
  return map;
}

std::vector<uint32_t> prune_columns(Plan* plan, const std::vector<bool>& needed,
                                    const Catalog& catalog);

// Prunes a join input to the `needed` columns (plus whatever it must keep
// anyway) and returns its old -> new column map.
std::vector<uint32_t> prune_input(PlanPtr* input, std::vector<bool> needed,
                                  const Catalog& catalog) {
  std::vector<uint32_t> map = prune_columns(input->get(), needed, catalog);
  std::vector<uint32_t> keep;
  uint32_t kept = 0;
  for (uint32_t c = 0; c < map.size(); ++c) {
    if (map[c] == kDropped) continue;
    ++kept;
    if (needed[c]) keep.push_back(map[c]);
  }
  if (keep.size() == kept) return map;
  *input = project(std::move(*input), keep);
  uint32_t next = 0;
  for (uint32_t c = 0; c < map.size(); ++c) {
    map[c] = needed[c] ? next++ : kDropped;
  }
  return map;
}

// Narrows `plan` in place to output at least the `needed` columns, in their
// original order, and returns its old -> new output column map (kDropped for
// a column no longer produced). Only projects and joins ever drop columns.
std::vector<uint32_t> prune_columns(Plan* plan, const std::vector<bool>& needed,
                                    const Catalog& catalog) {
  switch (plan->kind) {
    case Plan::Kind::kScan:
      return identity(static_cast<uint32_t>(needed.size()));

    case Plan::Kind::kFilter: {
      std::vector<bool> child_needed = needed;
      for_each_col(plan->pred, [&](uint32_t c) { child_needed[c] = true; });
      std::vector<uint32_t> map =
          prune_columns(plan->child.get(), child_needed, catalog);
      remap_cols(&plan->pred, [&](uint32_t c) { return map[c]; });
      return map;
    }

    case Plan::Kind::kProject: {
      std::vector<uint32_t> cols;
      std::vector<uint32_t> map(plan->cols.size(), kDropped);
      for (uint32_t i = 0; i < plan->cols.size(); ++i) {
        if (!needed[i]) continue;
        map[i] = static_cast<uint32_t>(cols.size());
        cols.push_back(plan->cols[i]);
      }
      std::vector<bool> child_needed(width(*plan->child, catalog), false);
      for (uint32_t c : cols) child_needed[c] = true;
      const std::vector<uint32_t> child_map =
          prune_columns(plan->child.get(), child_needed, catalog);
      for (uint32_t& c : cols) c = child_map[c];
      plan->cols = std::move(cols);
      return map;
    }

    case Plan::Kind::kJoin: {
      const uint32_t left_width = width(*plan->child, catalog);
      std::vector<bool> left_needed(needed.begin(), needed.begin() + left_width);
      std::vector<bool> right_needed(needed.begin() + left_width, needed.end());
      for (uint32_t k : plan->left_keys) left_needed[k] = true;
      for (uint32_t k : plan->right_keys) right_needed[k] = true;
      std::vector<uint32_t> map =
          prune_input(&plan->child, std::move(left_needed), catalog);
      const std::vector<uint32_t> right_map =
          prune_input(&plan->right, std::move(right_needed), catalog);
      for (uint32_t& k : plan->left_keys) k = map[k];
      for (uint32_t& k : plan->right_keys) k = right_map[k];
      uint32_t new_left_width = 0;
      for (uint32_t c : map) new_left_width += c != kDropped;
      for (uint32_t c : right_map) {
        map.push_back(c == kDropped ? kDropped : new_left_width + c);
      }
      return map;
    }

    case Plan::Kind::kGroupBy: {
      std::vector<bool> child_needed(width(*plan->child, catalog), false);
      for (uint32_t k : plan->keys) child_needed[k] = true;
      for (const AggSpec& agg : plan->aggs) {
        if (agg.kind != AggKind::kCount) child_needed[agg.col] = true;
      }
      const std::vector<uint32_t> map =
          prune_columns(plan->child.get(), child_needed, catalog);
      for (uint32_t& k : plan->keys) k = map[k];
      for (AggSpec& agg : plan->aggs) {
        if (agg.kind != AggKind::kCount) agg.col = map[agg.col];
      }
      return identity(static_cast<uint32_t>(needed.size()));
    }
  }
  return identity(static_cast<uint32_t>(needed.size()));
}

}  // namespace

PlanPtr push_down(const Plan& plan, const Catalog& catalog) {
  const Schema out = output_schema(plan, catalog);  // validates the tree
  PlanPtr rewritten = push_filters(plan, {}, catalog);
  prune_columns(rewritten.get(), std::vector<bool>(out.size(), true), catalog);
  return rewritten;
}

}  // namespace hamr::query

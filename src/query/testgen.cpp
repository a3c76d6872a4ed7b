#include "query/testgen.h"

#include <algorithm>
#include <cstddef>
#include <string>

namespace hamr::query {

const char* family_name(Family family) {
  switch (family) {
    case Family::kScanFilter: return "scan_filter";
    case Family::kProject: return "project";
    case Family::kJoin: return "join";
    case Family::kGroupBy: return "group_by";
    case Family::kJoinGroupBy: return "join_group_by";
    case Family::kJoinFilter: return "join_filter";
  }
  return "?";
}

namespace {

uint32_t pick(std::mt19937_64& rng, uint32_t bound) {
  return static_cast<uint32_t>(rng() % bound);
}

Value random_value(std::mt19937_64& rng, ColType type) {
  switch (type) {
    case ColType::kI64:
      if (pick(rng, 10) == 0) {
        const int64_t magnitude = 1'000'000'000'000'000;
        return Value::of(pick(rng, 2) ? magnitude : -magnitude);
      }
      return Value::of(static_cast<int64_t>(pick(rng, 101)) - 50);
    case ColType::kF64:
      // 1/16 grid keeps every sum order-independent (see header).
      return Value::of((static_cast<double>(pick(rng, 1601)) - 800) / 16.0);
    case ColType::kStr: {
      std::string s;
      const uint32_t len = pick(rng, 9);
      for (uint32_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + pick(rng, 4)));
      }
      return Value::of(std::move(s));
    }
  }
  return Value{};
}

uint32_t random_row_count(std::mt19937_64& rng) {
  if (pick(rng, 10) == 0) return 0;  // empty-input coverage
  return 1 + pick(rng, 200);
}

Expr random_pred(std::mt19937_64& rng, const Table& table) {
  const auto leaf = [&] {
    const uint32_t col = pick(rng, static_cast<uint32_t>(table.schema.size()));
    const ColType type = table.schema.cols[col].type;
    // Draw the literal from the data half the time so selectivity is
    // neither ~0 nor ~1.
    Value literal = (!table.rows.empty() && pick(rng, 2) == 0)
                        ? table.rows[pick(rng, static_cast<uint32_t>(
                                                   table.rows.size()))][col]
                        : random_value(rng, type);
    const CmpOp op = static_cast<CmpOp>(pick(rng, 6));
    return Expr::cmp(col, op, std::move(literal));
  };

  switch (pick(rng, 10)) {
    case 0:
    case 1: {
      std::vector<Expr> children;
      children.push_back(leaf());
      children.push_back(leaf());
      return pick(rng, 2) ? Expr::and_of(std::move(children))
                          : Expr::or_of(std::move(children));
    }
    case 2:
      return Expr::not_of(leaf());
    default:
      return leaf();
  }
}

std::vector<AggSpec> random_aggs(std::mt19937_64& rng, const Schema& schema) {
  std::vector<AggSpec> aggs;
  const uint32_t count = 1 + pick(rng, 3);
  for (uint32_t i = 0; i < count; ++i) {
    AggSpec agg;
    agg.kind = static_cast<AggKind>(pick(rng, 4));
    if (agg.kind != AggKind::kCount) {
      agg.col = pick(rng, static_cast<uint32_t>(schema.size()));
      if (agg.kind == AggKind::kSum &&
          schema.cols[agg.col].type == ColType::kStr) {
        agg.kind = AggKind::kCount;  // no string sums
      }
    }
    aggs.push_back(agg);
  }
  return aggs;
}

std::vector<uint32_t> random_keys(std::mt19937_64& rng, const Schema& schema) {
  std::vector<uint32_t> keys;
  const uint32_t count = 1 + pick(rng, 2);
  for (uint32_t i = 0; i < count; ++i) {
    keys.push_back(pick(rng, static_cast<uint32_t>(schema.size())));
  }
  return keys;
}

std::vector<uint32_t> random_projection(std::mt19937_64& rng,
                                        const Schema& schema) {
  std::vector<uint32_t> cols;
  const uint32_t count =
      1 + pick(rng, static_cast<uint32_t>(schema.size()));
  for (uint32_t i = 0; i < count; ++i) {
    cols.push_back(pick(rng, static_cast<uint32_t>(schema.size())));
  }
  return cols;
}

// Rewrites ~half of `table`'s key tuples (columns `keys`) to key tuples
// drawn from `other`'s `other_keys` columns, so joins on those columns
// produce matches without being degenerate.
void correlate_keys(std::mt19937_64& rng, Table* table,
                    const std::vector<uint32_t>& keys, const Table& other,
                    const std::vector<uint32_t>& other_keys) {
  if (other.rows.empty()) return;
  for (Row& row : table->rows) {
    if (pick(rng, 2) == 0) {
      const Row& src =
          other.rows[pick(rng, static_cast<uint32_t>(other.rows.size()))];
      for (size_t k = 0; k < keys.size(); ++k) {
        row[keys[k]] = src[other_keys[k]];
      }
    }
  }
}

PlanPtr maybe_filter(std::mt19937_64& rng, PlanPtr plan, const Table& table) {
  if (pick(rng, 2) == 0) return plan;
  return filter(std::move(plan), random_pred(rng, table));
}

// `expr` with every column index c replaced by f(c).
template <typename F>
Expr remapped(Expr expr, const F& f) {
  if (expr.kind == Expr::Kind::kCmp) expr.col = f(expr.col);
  for (Expr& c : expr.children) c = remapped(std::move(c), f);
  return expr;
}

Expr shifted(Expr expr, uint32_t by) {
  return remapped(std::move(expr), [by](uint32_t c) { return c + by; });
}

// A comparison of a random column against that column's median with an
// order operator: it and its negation each keep about half the rows, so a
// conjunction of several still leaves rows to compare. `table` must have
// rows.
Expr wide_leaf(std::mt19937_64& rng, const Table& table) {
  const uint32_t col = pick(rng, static_cast<uint32_t>(table.schema.size()));
  std::vector<Value> values;
  for (const Row& row : table.rows) values.push_back(row[col]);
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end(),
                   [](const Value& a, const Value& b) {
                     switch (a.type) {
                       case ColType::kI64: return a.i < b.i;
                       case ColType::kF64: return a.f < b.f;
                       case ColType::kStr: return a.s < b.s;
                     }
                     return false;
                   });
  return Expr::cmp(col, static_cast<CmpOp>(2 + pick(rng, 4)), *mid);
}

// One conjunct over the join of `left` and `right` (right columns follow
// the left ones): left-only (sometimes an OR within the left side),
// right-only, an OR across the two sides, or a NOT of either.
Expr random_join_conjunct(std::mt19937_64& rng, const Table& left,
                          const Table& right) {
  const uint32_t left_width = static_cast<uint32_t>(left.schema.size());
  const auto right_leaf = [&] {
    return shifted(wide_leaf(rng, right), left_width);
  };
  const auto across = [&] {
    return Expr::or_of({wide_leaf(rng, left), right_leaf()});
  };
  switch (pick(rng, 5)) {
    case 0:
      if (pick(rng, 2) == 0) return wide_leaf(rng, left);
      return Expr::or_of({wide_leaf(rng, left), wide_leaf(rng, left)});
    case 1: return right_leaf();
    case 2: return across();
    case 3: return Expr::not_of(across());
    default:
      return Expr::not_of(pick(rng, 2) ? wide_leaf(rng, left) : right_leaf());
  }
}

}  // namespace

Table random_table(std::mt19937_64& rng, uint32_t rows) {
  Table table;
  const uint32_t cols = 2 + pick(rng, 4);
  for (uint32_t c = 0; c < cols; ++c) {
    // Column 0 is always i64 so key-based plans always have a key to use.
    const ColType type =
        c == 0 ? ColType::kI64 : static_cast<ColType>(pick(rng, 3));
    std::string name = "c";
    name += std::to_string(c);
    table.schema.cols.push_back({std::move(name), type});
  }
  table.rows.reserve(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) {
      row.push_back(random_value(rng, table.schema.cols[c].type));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

GeneratedQuery generate_query(Family family, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull +
                      static_cast<uint64_t>(family));
  GeneratedQuery q;

  Table t1 = random_table(rng, random_row_count(rng));

  switch (family) {
    case Family::kScanFilter: {
      PlanPtr plan = filter(scan("t1"), random_pred(rng, t1));
      if (pick(rng, 3) == 0) plan = filter(std::move(plan), random_pred(rng, t1));
      q.plan = std::move(plan);
      break;
    }

    case Family::kProject: {
      PlanPtr plan = maybe_filter(rng, scan("t1"), t1);
      q.plan = project(std::move(plan), random_projection(rng, t1.schema));
      break;
    }

    case Family::kJoin:
    case Family::kJoinGroupBy: {
      Table t2 = random_table(rng, random_row_count(rng));
      // Half the time (when column types line up) join on a composed
      // {c0, c1} key tuple instead of bare c0, exercising multi-column
      // encode_key composition end to end.
      std::vector<uint32_t> left_keys{0};
      std::vector<uint32_t> right_keys{0};
      if (t1.schema.cols[1].type == t2.schema.cols[1].type &&
          pick(rng, 2) == 0) {
        left_keys.push_back(1);
        right_keys.push_back(1);
      }
      correlate_keys(rng, &t2, right_keys, t1, left_keys);
      PlanPtr left = maybe_filter(rng, scan("t1"), t1);
      PlanPtr right = maybe_filter(rng, scan("t2"), t2);
      PlanPtr joined =
          hash_join(std::move(left), std::move(right), left_keys, right_keys);

      Catalog tmp;  // joined schema for the operators above the join
      tmp.tables["t1"] = t1;
      tmp.tables["t2"] = t2;
      const Schema joined_schema = output_schema(*joined, tmp);

      if (family == Family::kJoin) {
        if (pick(rng, 5) < 2) {
          joined = project(std::move(joined),
                           random_projection(rng, joined_schema));
        }
        q.plan = std::move(joined);
      } else {
        q.plan = group_by(std::move(joined), random_keys(rng, joined_schema),
                          random_aggs(rng, joined_schema));
      }
      q.catalog.tables["t2"] = std::move(t2);
      break;
    }

    case Family::kJoinFilter: {
      // Both tables have rows, so the join and its filters keep some.
      t1 = random_table(rng, 20 + pick(rng, 181));
      Table t2 = random_table(rng, 20 + pick(rng, 181));
      correlate_keys(rng, &t2, {0}, t1, {0});
      // Sometimes a filter already sits on an input, so pushed conjuncts
      // join it there.
      const auto input = [&](const char* name, const Table& table) {
        PlanPtr plan = scan(name);
        if (pick(rng, 2) == 0) return plan;
        return filter(std::move(plan), wide_leaf(rng, table));
      };
      PlanPtr left = input("t1", t1);  // drawn first: argument order is unspecified
      PlanPtr joined = hash_join(std::move(left), input("t2", t2), 0, 0);
      Catalog tmp;
      tmp.tables["t1"] = t1;
      tmp.tables["t2"] = t2;
      const Schema joined_schema = output_schema(*joined, tmp);

      // 2-3 conjuncts; the last two sometimes nest in an inner AND.
      std::vector<Expr> conjuncts;
      const uint32_t count = 2 + pick(rng, 2);
      for (uint32_t i = 0; i < count; ++i) {
        conjuncts.push_back(random_join_conjunct(rng, t1, t2));
      }
      if (pick(rng, 2) == 0) {
        Expr inner = Expr::and_of({std::move(conjuncts[count - 2]),
                                   std::move(conjuncts[count - 1])});
        conjuncts.resize(count - 2);
        conjuncts.push_back(std::move(inner));
      }
      Expr pred = Expr::and_of(std::move(conjuncts));

      switch (pick(rng, 4)) {
        case 0:
          q.plan = filter(std::move(joined), std::move(pred));
          break;
        case 1:
          q.plan = project(filter(std::move(joined), std::move(pred)),
                           random_projection(rng, joined_schema));
          break;
        case 2:
          q.plan = group_by(filter(std::move(joined), std::move(pred)),
                            random_keys(rng, joined_schema),
                            random_aggs(rng, joined_schema));
          break;
        default: {
          // The filter sits above a project that reverses the joined
          // columns, so its indexes remap through the projection list.
          const uint32_t n = static_cast<uint32_t>(joined_schema.size());
          std::vector<uint32_t> reversed;
          for (uint32_t c = n; c > 0; --c) reversed.push_back(c - 1);
          q.plan = filter(
              project(std::move(joined), std::move(reversed)),
              remapped(std::move(pred), [n](uint32_t c) { return n - 1 - c; }));
          break;
        }
      }
      q.catalog.tables["t2"] = std::move(t2);
      break;
    }

    case Family::kGroupBy: {
      PlanPtr plan = maybe_filter(rng, scan("t1"), t1);
      q.plan = group_by(std::move(plan), random_keys(rng, t1.schema),
                        random_aggs(rng, t1.schema));
      break;
    }
  }

  q.catalog.tables["t1"] = std::move(t1);
  return q;
}

}  // namespace hamr::query

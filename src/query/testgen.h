// Seeded random tables and plans for the differential test suite and the
// BigBench-style benches (DESIGN.md §13).
//
// Everything here is deterministic in its seed: the same seed yields the
// same catalog and plan, so a differential failure replays exactly.
//
// Value domains are chosen for the byte-identical contract:
//   * i64 mostly draws from a small domain (join/group collisions happen),
//     with occasional +-1e15 outliers - i64 sums wrap deterministically, so
//     magnitude is unconstrained;
//   * f64 draws from the 1/16 grid in [-50, 50]. Sums of millions of such
//     values stay far inside 2^53 ulps of the grid, so every partial-sum
//     order produces the same IEEE double - a requirement for comparing an
//     out-of-order engine fold against the sequential reference;
//   * strings are short, lowercase, from a 4-letter alphabet (collisions),
//     including empty strings.
#pragma once

#include <cstdint>
#include <random>

#include "query/plan.h"

namespace hamr::query {

// One operator family of the differential suite.
enum class Family {
  kScanFilter,    // filter(scan), sometimes stacked filters
  kProject,       // project over (optionally filtered) scan
  kJoin,          // hash_join of two scans, filters below, project above
  kGroupBy,       // group_by over (optionally filtered) scan
  kJoinGroupBy,   // group_by over hash_join - the BigBench shape
  kJoinFilter,    // filter above hash_join: left-only, right-only, both-side,
                  // OR-across-sides and NOT conjuncts, sometimes under a
                  // project or group_by (push_down's cases)
};

const char* family_name(Family family);

struct GeneratedQuery {
  Catalog catalog;
  PlanPtr plan;
};

// A random table with `rows` rows and 2-5 columns of mixed types (always at
// least one i64 column, so key-based plans can be generated against it).
Table random_table(std::mt19937_64& rng, uint32_t rows);

// A random valid plan of the family plus the catalog it reads. Row counts
// range from 0 (empty-input coverage happens naturally) to ~200.
GeneratedQuery generate_query(Family family, uint64_t seed);

}  // namespace hamr::query

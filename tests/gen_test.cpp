// Property tests for the workload generators: determinism, format validity,
// target sizes, and the distributions the benchmarks rely on.
#include <gtest/gtest.h>

#include <charconv>
#include <set>

#include "apps/histograms.h"
#include "apps/movie_vectors.h"
#include "gen/generators.h"

using namespace hamr;
using namespace hamr::gen;

namespace {

std::vector<std::string_view> lines_of(const std::string& text) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) out.push_back(std::string_view(text).substr(pos, eol - pos));
    pos = eol + 1;
  }
  return out;
}

}  // namespace

TEST(Generators, DeterministicPerSeedAndShard) {
  TextSpec spec;
  spec.total_bytes = 64 * 1024;
  EXPECT_EQ(text_shard(spec, 0, 4), text_shard(spec, 0, 4));
  EXPECT_NE(text_shard(spec, 0, 4), text_shard(spec, 1, 4));
  TextSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(text_shard(spec, 0, 4), text_shard(other, 0, 4));
}

TEST(Generators, ShardSizesNearTarget) {
  TextSpec spec;
  spec.total_bytes = 256 * 1024;
  uint64_t total = 0;
  for (uint32_t i = 0; i < 4; ++i) total += text_shard(spec, i, 4).size();
  EXPECT_GT(total, spec.total_bytes * 9 / 10);
  EXPECT_LT(total, spec.total_bytes * 11 / 10 + 16 * 1024);
}

TEST(Generators, TextWordsAreZipfSkewed) {
  TextSpec spec;
  spec.total_bytes = 256 * 1024;
  spec.vocab = 1000;
  const std::string shard = text_shard(spec, 0, 1);
  std::map<std::string, int> counts;
  for (auto line : lines_of(shard)) {
    size_t pos = 0;
    while (pos < line.size()) {
      size_t sp = line.find(' ', pos);
      if (sp == std::string_view::npos) sp = line.size();
      ++counts[std::string(line.substr(pos, sp - pos))];
      pos = sp + 1;
    }
  }
  // w0 should dominate any deep-tail word by a wide margin.
  EXPECT_GT(counts["w0"], 50 * std::max(1, counts["w900"]));
}

TEST(Generators, MoviesLinesParseAndRatingsSkewToFour) {
  MoviesSpec spec;
  spec.total_bytes = 128 * 1024;
  const std::string shard = movies_shard(spec, 0, 1);
  uint64_t hist[6] = {0};
  for (auto line : lines_of(shard)) {
    apps::histograms::MovieLine movie;
    ASSERT_TRUE(apps::histograms::parse_movie_line(line, &movie)) << line;
    for (uint32_t r : movie.ratings) {
      ASSERT_GE(r, 1u);
      ASSERT_LE(r, 5u);
      ++hist[r];
    }
  }
  // Default distribution peaks at rating 4 - the HistogramRatings hot key.
  for (int r = 1; r <= 5; ++r) {
    if (r != 4) {
      EXPECT_GT(hist[4], hist[r]) << "rating " << r;
    }
  }
}

TEST(Generators, MovieIdsUniqueAcrossShards) {
  MoviesSpec spec;
  spec.total_bytes = 64 * 1024;
  std::set<std::string> ids;
  for (uint32_t shard = 0; shard < 3; ++shard) {
    const std::string text = movies_shard(spec, shard, 3);
    for (auto line : lines_of(text)) {
      const auto id = std::string(line.substr(0, line.find(':')));
      EXPECT_TRUE(ids.insert(id).second) << "duplicate movie id " << id;
    }
  }
}

TEST(Generators, MovieVectorsParseWithAscendingUsers) {
  MoviesSpec spec;
  spec.total_bytes = 64 * 1024;
  const std::string shard = movie_vectors_shard(spec, 0, 2);
  for (auto line : lines_of(shard)) {
    apps::movies::MovieVector v;
    ASSERT_TRUE(apps::movies::parse_movie_vector(line, &v)) << line;
    for (size_t i = 1; i < v.coords.size(); ++i) {
      EXPECT_GT(v.coords[i].first, v.coords[i - 1].first) << line;
    }
  }
}

TEST(Generators, DocsHaveLabelAndWords) {
  DocsSpec spec;
  spec.total_bytes = 64 * 1024;
  spec.num_labels = 7;
  const std::string shard = docs_shard(spec, 0, 1);
  for (auto line : lines_of(shard)) {
    const size_t tab = line.find('\t');
    ASSERT_NE(tab, std::string_view::npos);
    EXPECT_EQ(line.substr(0, 5), "label");
    uint32_t label = 99;
    std::from_chars(line.data() + 5, line.data() + tab, label);
    EXPECT_LT(label, 7u);
    EXPECT_FALSE(apps::tokenize(line.substr(tab + 1)).empty());
  }
}

TEST(Generators, WebGraphEdgesInRangeAndSkewedInDegree) {
  WebGraphSpec spec;
  spec.num_pages = 256;
  spec.num_edges = 20000;
  std::map<uint64_t, int> indegree;
  uint64_t edges = 0;
  for (uint32_t shard = 0; shard < 2; ++shard) {
    const std::string text = web_graph_shard(spec, shard, 2);
    for (auto line : lines_of(text)) {
      const size_t sp = line.find(' ');
      ASSERT_NE(sp, std::string_view::npos);
      uint64_t src = 999999, dst = 999999;
      std::from_chars(line.data(), line.data() + sp, src);
      std::from_chars(line.data() + sp + 1, line.data() + line.size(), dst);
      ASSERT_LT(src, spec.num_pages);
      ASSERT_LT(dst, spec.num_pages);
      EXPECT_NE(src, dst);
      ++indegree[dst];
      ++edges;
    }
  }
  EXPECT_EQ(edges, spec.num_edges);
  // Page 0 (zipf rank 0) attracts far more links than a mid-rank page.
  EXPECT_GT(indegree[0], 10 * std::max(1, indegree[200]));
}

TEST(Generators, RmatEdgesNormalizedLoHi) {
  RmatSpec spec;
  spec.scale = 8;
  spec.num_edges = 5000;
  uint64_t edges = 0;
  const std::string shard = rmat_shard(spec, 0, 1);
  for (auto line : lines_of(shard)) {
    const size_t sp = line.find(' ');
    uint64_t a = 0, b = 0;
    std::from_chars(line.data(), line.data() + sp, a);
    std::from_chars(line.data() + sp + 1, line.data() + line.size(), b);
    EXPECT_LT(a, b);  // canonical lo < hi, no self loops
    EXPECT_LT(b, 1ull << spec.scale);
    ++edges;
  }
  EXPECT_EQ(edges, spec.num_edges);
}

TEST(Generators, RmatSplitsEdgeCountAcrossShards) {
  RmatSpec spec;
  spec.scale = 8;
  spec.num_edges = 1001;  // not divisible
  uint64_t total = 0;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    total += lines_of(rmat_shard(spec, shard, 4)).size();
  }
  EXPECT_EQ(total, spec.num_edges);
}

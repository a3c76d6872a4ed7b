// End-to-end correctness: every benchmark runs on BOTH engines over the same
// generated dataset and must match a sequential reference implementation.
// Cost models are disabled (fast cluster) - these tests check data paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>

#include "apps/classification.h"
#include "apps/histograms.h"
#include "apps/kcliques.h"
#include "apps/kmeans.h"
#include "apps/naive_bayes.h"
#include "apps/pagerank.h"
#include "apps/wordcount.h"
#include "gen/generators.h"

using namespace hamr;

namespace {

// Member lines per cluster in the node-local files "<prefix><cluster>_node<n>".
std::map<uint32_t, uint64_t> member_lines(cluster::Cluster& cluster,
                                          const std::string& prefix) {
  std::map<uint32_t, uint64_t> sizes;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    for (const std::string& path : cluster.node(n).store().list(prefix)) {
      uint32_t id = 0;
      std::from_chars(path.data() + prefix.size(), path.data() + path.size(), id);
      const std::string& text = *cluster.node(n).store().read_file(path).value();
      sizes[id] += std::count(text.begin(), text.end(), '\n');
    }
  }
  return sizes;
}

}  // namespace

TEST(AppsIntegration, WordCount) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::TextSpec spec;
  spec.total_bytes = 128 * 1024;
  auto shards = apps::make_shards(env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 4); });
  auto staged = apps::stage_input(env, "wc", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  apps::wordcount::run_hamr(env, staged);
  EXPECT_EQ(apps::wordcount::hamr_output(env), expected);
  apps::wordcount::run_baseline(env, staged);
  EXPECT_EQ(apps::wordcount::baseline_output(env), expected);
}

TEST(AppsIntegration, WordCountWithCombinerAndFullReduce) {
  apps::BenchEnv env = apps::BenchEnv::fast(3);
  gen::TextSpec spec;
  spec.total_bytes = 96 * 1024;
  auto shards = apps::make_shards(env.nodes(),
                            [&](uint32_t i) { return gen::text_shard(spec, i, 3); });
  auto staged = apps::stage_input(env, "wc", shards, 16 * 1024);
  const auto expected = apps::wordcount::reference(shards);

  apps::wordcount::run_hamr(env, staged, /*combine=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(env), expected);

  apps::wordcount::run_hamr(env, staged, /*combine=*/false, /*use_full_reduce=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(env), expected);

  apps::wordcount::run_baseline(env, staged, /*use_combiner=*/false);
  EXPECT_EQ(apps::wordcount::baseline_output(env), expected);
}

TEST(AppsIntegration, HistogramMovies) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::MoviesSpec spec;
  spec.total_bytes = 128 * 1024;
  auto shards = apps::make_shards(env.nodes(),
                            [&](uint32_t i) { return gen::movies_shard(spec, i, 4); });
  auto staged = apps::stage_input(env, "hm", shards, 16 * 1024);
  const auto expected =
      apps::histograms::reference(shards, apps::histograms::Kind::kMovies);

  apps::histograms::run_hamr(env, staged, apps::histograms::Kind::kMovies);
  EXPECT_EQ(apps::histograms::hamr_output(env, apps::histograms::Kind::kMovies),
            expected);
  apps::histograms::run_baseline(env, staged, apps::histograms::Kind::kMovies);
  EXPECT_EQ(apps::histograms::baseline_output(env, apps::histograms::Kind::kMovies),
            expected);
}

TEST(AppsIntegration, HistogramRatings) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::MoviesSpec spec;
  spec.total_bytes = 128 * 1024;
  auto shards = apps::make_shards(env.nodes(),
                            [&](uint32_t i) { return gen::movies_shard(spec, i, 4); });
  auto staged = apps::stage_input(env, "hr", shards, 16 * 1024);
  const auto expected =
      apps::histograms::reference(shards, apps::histograms::Kind::kRatings);
  ASSERT_EQ(expected.size(), 5u);  // exactly the 5 rating keys

  const auto plain = apps::histograms::run_hamr(
      env, staged, apps::histograms::Kind::kRatings, /*combine=*/false);
  EXPECT_EQ(apps::histograms::hamr_output(env, apps::histograms::Kind::kRatings),
            expected);
  // No combiner requested: nothing folds sender-side.
  EXPECT_EQ(plain.engine_result.metrics.counter("engine.combine_folds"), 0u);
  // Combiner variant (Table 3) must agree too ...
  const auto combined = apps::histograms::run_hamr(
      env, staged, apps::histograms::Kind::kRatings, /*combine=*/true);
  EXPECT_EQ(apps::histograms::hamr_output(env, apps::histograms::Kind::kRatings),
            expected);
  // ... and the combiner must actually have been placed on the shuffle edge.
  EXPECT_GT(combined.engine_result.metrics.counter("engine.combine_folds"), 0u);
  apps::histograms::run_baseline(env, staged, apps::histograms::Kind::kRatings);
  EXPECT_EQ(apps::histograms::baseline_output(env, apps::histograms::Kind::kRatings),
            expected);
}

TEST(AppsIntegration, NaiveBayes) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::DocsSpec spec;
  spec.total_bytes = 128 * 1024;
  auto shards = apps::make_shards(env.nodes(),
                            [&](uint32_t i) { return gen::docs_shard(spec, i, 4); });
  auto staged = apps::stage_input(env, "nb", shards, 16 * 1024);
  const auto expected = apps::naive_bayes::reference(shards);

  apps::naive_bayes::run_hamr(env, staged);
  EXPECT_EQ(apps::naive_bayes::hamr_output(env), expected);
  apps::naive_bayes::run_baseline(env, staged);
  EXPECT_EQ(apps::naive_bayes::baseline_output(env), expected);
}

TEST(AppsIntegration, KMeans) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::MoviesSpec spec;
  spec.total_bytes = 192 * 1024;
  auto shards = apps::make_shards(env.nodes(), [&](uint32_t i) {
    return gen::movie_vectors_shard(spec, i, 4);
  });
  auto staged = apps::stage_input(env, "km", shards, 16 * 1024);
  const auto params = apps::kmeans::make_params(shards, 6);
  const auto expected = apps::kmeans::reference(shards, params);
  ASSERT_FALSE(expected.new_centroids.empty());

  apps::kmeans::run_hamr(env, staged, params);
  EXPECT_EQ(apps::kmeans::hamr_new_centroids(env), expected.new_centroids);
  EXPECT_EQ(apps::kmeans::hamr_cluster_sizes(env), expected.cluster_sizes);

  apps::kmeans::run_baseline(env, staged, params);
  EXPECT_EQ(apps::kmeans::baseline_new_centroids(env), expected.new_centroids);

  // Ablation variant (ship full vectors) must agree with the locality path.
  apps::kmeans::run_hamr(env, staged, params, /*ship_full_vectors=*/true);
  EXPECT_EQ(apps::kmeans::hamr_new_centroids(env), expected.new_centroids);
}

TEST(AppsIntegration, Classification) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::MoviesSpec spec;
  spec.total_bytes = 128 * 1024;
  auto shards = apps::make_shards(env.nodes(), [&](uint32_t i) {
    return gen::movie_vectors_shard(spec, i, 4);
  });
  auto staged = apps::stage_input(env, "cl", shards, 16 * 1024);
  const auto params = apps::kmeans::make_params(shards, 5);
  const auto expected = apps::classification::reference(shards, params);

  apps::classification::run_hamr(env, staged, params);
  EXPECT_EQ(apps::classification::hamr_cluster_sizes(env), expected);
  apps::classification::run_baseline(env, staged, params);
  EXPECT_EQ(apps::classification::baseline_cluster_sizes(env), expected);
}

// K-Means and Classification append their per-cluster member files; a
// second run on the same cluster must not count the first run's members.
TEST(AppsIntegration, KMeansAndClassificationRerunOnOneEnv) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::MoviesSpec spec;
  spec.total_bytes = 96 * 1024;
  auto shards = apps::make_shards(env.nodes(), [&](uint32_t i) {
    return gen::movie_vectors_shard(spec, i, 4);
  });
  auto staged = apps::stage_input(env, "rerun", shards, 16 * 1024);
  const auto params = apps::kmeans::make_params(shards, 5);
  const auto expected = apps::kmeans::reference(shards, params);
  ASSERT_FALSE(expected.cluster_sizes.empty());

  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    apps::kmeans::run_hamr(env, staged, params);
    EXPECT_EQ(apps::kmeans::hamr_cluster_sizes(env), expected.cluster_sizes);
    apps::classification::run_hamr(env, staged, params);
    EXPECT_EQ(apps::classification::hamr_cluster_sizes(env), expected.cluster_sizes);
    EXPECT_EQ(member_lines(*env.cluster, "out/classification/cluster"),
              expected.cluster_sizes);
  }
}

TEST(AppsIntegration, PageRank) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::WebGraphSpec spec;
  spec.num_pages = 512;
  spec.num_edges = 4096;
  auto shards = apps::make_shards(env.nodes(), [&](uint32_t i) {
    return gen::web_graph_shard(spec, i, 4);
  });
  auto staged = apps::stage_input(env, "pr", shards, 16 * 1024);
  apps::pagerank::Params params;
  params.num_pages = spec.num_pages;
  params.iterations = 3;
  const auto expected = apps::pagerank::reference(shards, params);

  apps::pagerank::run_hamr(env, staged, params);
  const auto hamr = apps::pagerank::hamr_ranks(env, params);
  ASSERT_EQ(hamr.size(), expected.size());
  for (const auto& [page, rank] : expected) {
    EXPECT_NEAR(hamr.at(page), rank, 1e-12) << "page " << page;
  }

  apps::pagerank::run_baseline(env, staged, params);
  const auto base = apps::pagerank::baseline_ranks(env, params, params.iterations);
  ASSERT_EQ(base.size(), expected.size());
  for (const auto& [page, rank] : expected) {
    EXPECT_NEAR(base.at(page), rank, 1e-12) << "page " << page;
  }

  // Ablation variant (reload edges each iteration) computes the same ranks.
  apps::pagerank::run_hamr(env, staged, params, /*reload_each_iteration=*/true);
  const auto reloaded = apps::pagerank::hamr_ranks(env, params);
  for (const auto& [page, rank] : expected) {
    EXPECT_NEAR(reloaded.at(page), rank, 1e-12) << "page " << page;
  }
}

TEST(AppsIntegration, KCliques) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  gen::RmatSpec spec;
  spec.scale = 7;       // 128 vertices
  spec.num_edges = 1500;  // dense enough for 4-cliques
  auto shards = apps::make_shards(env.nodes(),
                            [&](uint32_t i) { return gen::rmat_shard(spec, i, 4); });
  auto staged = apps::stage_input(env, "kc", shards, 8 * 1024);
  apps::kcliques::Params params;
  params.k = 4;
  const auto expected = apps::kcliques::reference(shards, params);
  ASSERT_FALSE(expected.empty()) << "generator produced no 4-cliques; retune";

  apps::kcliques::run_hamr(env, staged, params);
  EXPECT_EQ(apps::kcliques::hamr_cliques(env), expected);
  apps::kcliques::run_baseline(env, staged, params);
  EXPECT_EQ(apps::kcliques::baseline_cliques(env), expected);
}

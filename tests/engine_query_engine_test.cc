#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tpa.h"
#include "engine/thread_pool.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "la/vector_ops.h"
#include "method/registry.h"
#include "method/tpa_method.h"
#include "util/cache_info.h"
#include "util/check.h"

namespace tpa {
namespace {

Graph ServingGraph(uint64_t seed = 77) {
  DcsbmOptions options;
  options.nodes = 500;
  options.edges = 5000;
  options.blocks = 10;
  options.seed = seed;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

TEST(QueryEngineTest, BatchBitwiseMatchesSequentialTpaQuery) {
  Graph graph = ServingGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());

  QueryEngineOptions options;
  options.num_threads = 4;
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  std::vector<NodeId> seeds = {0, 13, 250, 499, 13, 77};
  auto results = engine->QueryBatch(seeds);
  ASSERT_EQ(results.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status;
    EXPECT_EQ(results[i].seed, seeds[i]);
    const std::vector<double> expected = tpa->Query(seeds[i]);
    ASSERT_EQ(results[i].scores.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(results[i].scores[j], expected[j])
          << "seed " << seeds[i] << " node " << j;
    }
  }
}

TEST(QueryEngineTest, TopKAgreesWithFullSort) {
  Graph graph = ServingGraph();
  QueryEngineOptions options;
  options.num_threads = 2;
  options.top_k = 25;
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  const NodeId seed = 42;
  const std::vector<double> dense = tpa->Query(seed);

  QueryResult result = engine->Query(seed);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.scores.empty());  // top-k replaces the dense vector
  ASSERT_EQ(result.top.size(), 25u);

  // Full sort of the dense vector, same tie-break (score desc, node asc).
  std::vector<NodeId> order(dense.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&dense](NodeId a, NodeId b) {
    if (dense[a] != dense[b]) return dense[a] > dense[b];
    return a < b;
  });
  for (size_t i = 0; i < result.top.size(); ++i) {
    EXPECT_EQ(result.top[i].node, order[i]) << "rank " << i;
    EXPECT_EQ(result.top[i].score, dense[order[i]]);
  }
  // Scores are non-increasing.
  for (size_t i = 1; i < result.top.size(); ++i) {
    EXPECT_GE(result.top[i - 1].score, result.top[i].score);
  }
}

TEST(QueryEngineTest, CacheHitReturnsIdenticalScores) {
  Graph graph = ServingGraph();
  QueryEngineOptions options;
  options.num_threads = 2;
  options.cache_capacity = 8;
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  QueryResult cold = engine->Query(9);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.from_cache);

  QueryResult warm = engine->Query(9);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.from_cache);
  ASSERT_EQ(warm.scores.size(), cold.scores.size());
  for (size_t j = 0; j < cold.scores.size(); ++j) {
    EXPECT_EQ(warm.scores[j], cold.scores[j]);
  }

  auto stats = engine->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryEngineTest, CacheEvictsLeastRecentlyUsed) {
  Graph graph = ServingGraph();
  QueryEngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 2;
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  engine->Query(1);                             // cache: {1}
  engine->Query(2);                             // cache: {2, 1}
  engine->Query(1);                             // promotes 1 → {1, 2}
  engine->Query(3);                             // evicts 2 → {3, 1}
  EXPECT_TRUE(engine->Query(1).from_cache);
  EXPECT_FALSE(engine->Query(2).from_cache);    // was evicted
  EXPECT_EQ(engine->cache_stats().entries, 2u);
}

TEST(QueryEngineTest, OutOfRangeSeedFailsItsSlotOnly) {
  Graph graph = ServingGraph();
  auto engine = QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(engine.ok());

  auto results = engine->QueryBatch({1, graph.num_nodes(), 2});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_NEAR(la::NormL1(results[0].scores), 1.0, 1e-6);
}

TEST(QueryEngineTest, LargeBatchAcrossThreadsIsDeterministic) {
  Graph graph = ServingGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());

  QueryEngineOptions options;
  options.num_threads = 8;
  options.cache_capacity = 256;  // holds every distinct seed below
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  std::vector<NodeId> seeds;
  for (int i = 0; i < 200; ++i) {
    seeds.push_back(static_cast<NodeId>((i * 37) % graph.num_nodes()));
  }
  auto results = engine->QueryBatch(seeds);
  ASSERT_EQ(results.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_LT(la::L1Distance(results[i].scores, tpa->Query(seeds[i])), 1e-15);
  }

  // A second identical batch is served entirely from the warm cache and must
  // reproduce the cold results exactly.
  const uint64_t hits_before = engine->cache_stats().hits;
  auto warm = engine->QueryBatch(seeds);
  ASSERT_EQ(warm.size(), results.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(warm[i].status.ok());
    EXPECT_TRUE(warm[i].from_cache) << "seed " << seeds[i];
    EXPECT_EQ(warm[i].scores, results[i].scores);
  }
  EXPECT_EQ(engine->cache_stats().hits, hits_before + seeds.size());
}

TEST(QueryEngineTest, RegistryConstructionServesAnyMethod) {
  Graph graph = ServingGraph();
  MethodConfig config;
  config.tolerance = 1e-7;
  auto engine = QueryEngine::CreateFromRegistry(graph, "PowerIteration",
                                                config, {});
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->method().name(), "PowerIteration");
  QueryResult result = engine->Query(5);
  ASSERT_TRUE(result.status.ok());
  EXPECT_NEAR(la::NormL1(result.scores), 1.0, 1e-5);

  EXPECT_FALSE(QueryEngine::CreateFromRegistry(graph, "NoSuchMethod").ok());
}

TEST(QueryEngineTest, ValidatesOptions) {
  Graph graph = ServingGraph();
  EXPECT_FALSE(QueryEngine::Create(graph, nullptr, {}).ok());
  QueryEngineOptions bad;
  bad.top_k = -1;
  EXPECT_FALSE(
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), bad).ok());
}

TEST(QueryEngineTest, SpmmGroupingBitwiseMatchesPerSeedFanOut) {
  Graph graph = ServingGraph();
  std::vector<NodeId> seeds;
  for (int i = 0; i < 60; ++i) {
    seeds.push_back(static_cast<NodeId>((i * 41) % graph.num_nodes()));
  }

  QueryEngineOptions per_seed;
  per_seed.num_threads = 4;
  per_seed.batch_block_size = 0;  // per-seed fan-out
  auto baseline =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), per_seed);
  ASSERT_TRUE(baseline.ok());
  auto expected = baseline->QueryBatch(seeds);

  for (int block_size : {2, 8, 64}) {
    QueryEngineOptions grouped;
    grouped.num_threads = 4;
    grouped.batch_block_size = block_size;
    auto engine =
        QueryEngine::Create(graph, std::make_unique<TpaMethod>(), grouped);
    ASSERT_TRUE(engine.ok());
    auto results = engine->QueryBatch(seeds);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < seeds.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      EXPECT_EQ(results[i].scores, expected[i].scores)
          << "block size " << block_size << " seed " << seeds[i];
    }
  }
}

TEST(QueryEngineTest, SpmmGroupingHandlesCacheHitsErrorsAndTopK) {
  Graph graph = ServingGraph();
  QueryEngineOptions options;
  options.num_threads = 4;
  options.batch_block_size = 4;
  options.top_k = 10;
  options.cache_capacity = 64;
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  // Warm a few seeds so the grouped batch mixes hits, misses, and an
  // invalid slot.
  engine->QueryBatch({10, 20, 30});
  std::vector<NodeId> mixed = {10, 1, 20, graph.num_nodes(), 2, 30, 3, 4, 5};
  auto results = engine->QueryBatch(mixed);
  ASSERT_EQ(results.size(), mixed.size());

  EXPECT_TRUE(results[0].from_cache);
  EXPECT_TRUE(results[2].from_cache);
  EXPECT_TRUE(results[5].from_cache);
  EXPECT_EQ(results[3].status.code(), StatusCode::kOutOfRange);
  for (size_t i : {size_t{1}, size_t{4}, size_t{6}, size_t{7}, size_t{8}}) {
    ASSERT_TRUE(results[i].status.ok()) << "slot " << i;
    EXPECT_FALSE(results[i].from_cache);
    EXPECT_EQ(results[i].top.size(), 10u);
  }

  // Every served seed (hit or grouped miss) agrees with a direct query.
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  for (size_t i = 0; i < mixed.size(); ++i) {
    if (!results[i].status.ok()) continue;
    const auto expected = TopKScores(tpa->Query(mixed[i]), options.top_k);
    ASSERT_EQ(results[i].top.size(), expected.size());
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(results[i].top[k].node, expected[k].node);
      EXPECT_EQ(results[i].top[k].score, expected[k].score);
    }
  }
}

/// Every registry method must serve batches identically to sequential
/// queries.  One worker thread makes the pool FIFO, so even the stochastic
/// methods (HubPPR's RNG advances per query) see the same call sequence as
/// the sequential engine and the comparison is bitwise for all of them.
class RegistryBatchTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RegistryBatchTest, BatchEqualsSequential) {
  Graph graph = ServingGraph();
  MethodConfig config;
  config.tolerance = 1e-7;

  QueryEngineOptions options;
  options.num_threads = 1;
  options.batch_block_size = 4;

  auto sequential =
      QueryEngine::CreateFromRegistry(graph, GetParam(), config, options);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto batched =
      QueryEngine::CreateFromRegistry(graph, GetParam(), config, options);
  ASSERT_TRUE(batched.ok()) << batched.status();

  const std::vector<NodeId> seeds = {0, 13, 250, 499, 77};
  auto results = batched->QueryBatch(seeds);
  ASSERT_EQ(results.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok())
        << GetParam() << ": " << results[i].status;
    const QueryResult expected = sequential->Query(seeds[i]);
    ASSERT_TRUE(expected.status.ok());
    ASSERT_EQ(results[i].scores.size(), expected.scores.size());
    for (size_t j = 0; j < expected.scores.size(); ++j) {
      ASSERT_EQ(results[i].scores[j], expected.scores[j])
          << GetParam() << " seed " << seeds[i] << " node " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RegistryBatchTest,
                         ::testing::Values("TPA", "BEAR-APPROX", "NB-LIN",
                                           "BRPPR", "FORA", "HubPPR", "BePI",
                                           "PowerIteration"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(QueryEngineTest, ByteBudgetedCacheEvictsUntilUnderBudget) {
  Graph graph = ServingGraph();
  const size_t entry_bytes = graph.num_nodes() * sizeof(double);

  QueryEngineOptions options;
  options.num_threads = 1;
  options.cache_capacity_bytes = 3 * entry_bytes;  // room for three vectors
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  engine->Query(1);
  engine->Query(2);
  engine->Query(3);
  auto stats = engine->cache_stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 3 * entry_bytes);

  engine->Query(4);  // over budget → LRU seed 1 evicted
  stats = engine->cache_stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 3 * entry_bytes);
  EXPECT_FALSE(engine->Query(1).from_cache);
  EXPECT_TRUE(engine->Query(4).from_cache);
}

TEST(QueryEngineTest, EntryAndByteCapsComposeAndStatsReportBytes) {
  Graph graph = ServingGraph();
  const size_t entry_bytes = graph.num_nodes() * sizeof(double);

  // Byte budget allows 4 entries but the entry cap allows only 2.
  QueryEngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 2;
  options.cache_capacity_bytes = 4 * entry_bytes;
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  engine->Query(1);
  engine->Query(2);
  engine->Query(3);
  const auto stats = engine->cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2 * entry_bytes);
}

TEST(QueryEngineTest, AutoBatchBlockSizeFollowsCacheHeuristic) {
  Graph graph = ServingGraph();
  // Default (kAuto) resolves at Create time: 8 when the CSR arrays exceed
  // the LLC, 0 (per-seed) when cache-resident.
  auto auto_engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(auto_engine.ok());
  const int expected =
      graph.SizeBytes() > DetectLastLevelCacheBytes() ? 8 : 0;
  EXPECT_EQ(auto_engine->options().batch_block_size, expected);

  // Methods without a native batch path always resolve to per-seed.
  auto method = CreateMethod("BRPPR", {});
  ASSERT_TRUE(method.ok());
  auto no_batch = QueryEngine::Create(graph, std::move(*method), {});
  ASSERT_TRUE(no_batch.ok());
  EXPECT_EQ(no_batch->options().batch_block_size, 0);

  // Explicit values are the escape hatch and pass through untouched.
  for (int forced : {0, 1, 5}) {
    QueryEngineOptions options;
    options.batch_block_size = forced;
    auto engine =
        QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine->options().batch_block_size, forced);
  }

  QueryEngineOptions invalid;
  invalid.batch_block_size = -2;
  EXPECT_FALSE(
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), invalid)
          .ok());
}

TEST(QueryEngineTest, ReorderedGraphServesOriginalNodeIds) {
  // Engines over the original and a hub-reordered build of the same edges
  // must be indistinguishable to clients: same dense vectors, same top-k
  // ids, across the per-seed, SpMM-group, and cache-hit paths.
  Graph original = ServingGraph();
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    for (NodeId v : original.OutNeighbors(u)) edges.emplace_back(u, v);
  }
  GraphBuilder builder(original.num_nodes());
  builder.AddEdges(edges);
  BuildOptions build_options;
  build_options.node_ordering = NodeOrdering::kHubCluster;
  auto reordered = builder.Build(build_options);
  ASSERT_TRUE(reordered.ok());
  ASSERT_NE(reordered->permutation(), nullptr);

  const std::vector<NodeId> seeds = {0, 13, 250, 499, 13, 77};
  for (int batch_block : {0, 3}) {
    QueryEngineOptions options;
    options.num_threads = 2;
    options.batch_block_size = batch_block;
    options.cache_capacity = 8;
    auto base = QueryEngine::Create(original, std::make_unique<TpaMethod>(),
                                    options);
    auto permuted = QueryEngine::Create(*reordered,
                                        std::make_unique<TpaMethod>(),
                                        options);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(permuted.ok());

    for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
      auto expected = base->QueryBatch(seeds);
      auto results = permuted->QueryBatch(seeds);
      ASSERT_EQ(results.size(), expected.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        ASSERT_TRUE(results[i].status.ok()) << results[i].status;
        EXPECT_EQ(results[i].seed, seeds[i]);
        ASSERT_EQ(results[i].scores.size(), expected[i].scores.size());
        for (size_t j = 0; j < expected[i].scores.size(); ++j) {
          ASSERT_NEAR(results[i].scores[j], expected[i].scores[j], 1e-12)
              << "block " << batch_block << " seed " << seeds[i] << " node "
              << j;
        }
      }
    }
  }

  // Top-k extraction reports original ids.
  QueryEngineOptions topk_options;
  topk_options.top_k = 10;
  auto base = QueryEngine::Create(original, std::make_unique<TpaMethod>(),
                                  topk_options);
  auto permuted = QueryEngine::Create(*reordered,
                                      std::make_unique<TpaMethod>(),
                                      topk_options);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(permuted.ok());
  QueryResult expected = base->Query(42);
  QueryResult got = permuted->Query(42);
  ASSERT_EQ(got.top.size(), expected.top.size());
  for (size_t k = 0; k < expected.top.size(); ++k) {
    EXPECT_EQ(got.top[k].node, expected.top[k].node) << "rank " << k;
    EXPECT_NEAR(got.top[k].score, expected.top[k].score, 1e-12);
  }
}

TEST(ThreadPoolTest, DestructorDrainsEverySubmittedJob) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int j = 0; j < 64; ++j) pool.Submit([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(TopKScoresTest, ClampsAndBreaksTies) {
  const std::vector<double> scores = {0.5, 0.9, 0.5, 0.1};
  auto top = TopKScores(scores, 10);  // clamped to 4
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].node, 1u);
  EXPECT_EQ(top[1].node, 0u);  // tie with node 2 → smaller id first
  EXPECT_EQ(top[2].node, 2u);
  EXPECT_EQ(top[3].node, 3u);
  EXPECT_TRUE(TopKScores(scores, 0).empty());
}

}  // namespace
}  // namespace tpa

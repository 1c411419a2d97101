/// Engine-level fp32 serving coverage: the halved-footprint path through
/// QueryEngine / AsyncQueryEngine — fp32 dense results, fp32 cache entries
/// at half the bytes, top-k-only cache entries at O(k) bytes, tier
/// isolation in the cache, the precision-aware kAuto resolution, and the
/// refusal to run fp64-only methods on an fp32 graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/async_query_engine.h"
#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "la/precision.h"
#include "method/tpa_method.h"
#include "util/cache_info.h"
#include "util/check.h"

namespace tpa {
namespace {

struct TierPair {
  Graph fp64;
  Graph fp32;
};

TierPair ServingGraphs(uint64_t seed = 7) {
  DcsbmOptions options;
  options.nodes = 500;
  options.edges = 5000;
  options.blocks = 10;
  options.seed = seed;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  Graph fp32 = RematerializeWithPrecision(*graph, la::Precision::kFloat32);
  return {std::move(graph).value(), std::move(fp32)};
}

TEST(EnginePrecisionTest, Fp32EngineServesNativeFp32Dense) {
  const TierPair graphs = ServingGraphs();
  QueryEngineOptions options;
  options.num_threads = 2;
  options.batch_block_size = 0;
  auto engine = QueryEngine::Create(graphs.fp32,
                                    std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(engine->precision(), la::Precision::kFloat32);

  QueryResult result = engine->Query(42);
  ASSERT_TRUE(result.status.ok());
  // Dense fp32 serving populates scores_f32 and never materializes the
  // fp64 vector.
  EXPECT_TRUE(result.scores.empty());
  ASSERT_EQ(result.scores_f32.size(), graphs.fp32.num_nodes());

  // Bitwise against the core fp32 path.
  auto tpa = Tpa::Preprocess(graphs.fp32, {});
  ASSERT_TRUE(tpa.ok());
  const std::vector<float> expected = tpa->QueryF(42);
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(result.scores_f32[i], expected[i]) << i;
  }
}

TEST(EnginePrecisionTest, Fp32BatchAndGroupPathsMatchPerSeedBitwise) {
  const TierPair graphs = ServingGraphs(11);
  const std::vector<NodeId> seeds = {5, 123, 5, 499, 0, 321, 77, 9, 250};

  QueryEngineOptions per_seed;
  per_seed.num_threads = 2;
  per_seed.batch_block_size = 0;
  auto baseline = QueryEngine::Create(graphs.fp32,
                                      std::make_unique<TpaMethod>(), per_seed);
  ASSERT_TRUE(baseline.ok());

  QueryEngineOptions grouped;
  grouped.num_threads = 2;
  grouped.batch_block_size = 4;
  auto spmm = QueryEngine::Create(graphs.fp32, std::make_unique<TpaMethod>(),
                                  grouped);
  ASSERT_TRUE(spmm.ok());

  const std::vector<QueryResult> a = baseline->QueryBatch(seeds);
  const std::vector<QueryResult> b = spmm->QueryBatch(seeds);
  ASSERT_EQ(a.size(), seeds.size());
  ASSERT_EQ(b.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(a[i].status.ok());
    ASSERT_TRUE(b[i].status.ok());
    const QueryResult solo = baseline->Query(seeds[i]);
    ASSERT_EQ(a[i].scores_f32.size(), solo.scores_f32.size());
    for (size_t j = 0; j < solo.scores_f32.size(); ++j) {
      ASSERT_EQ(a[i].scores_f32[j], solo.scores_f32[j]) << i << "," << j;
      ASSERT_EQ(b[i].scores_f32[j], solo.scores_f32[j]) << i << "," << j;
    }
  }
}

TEST(EnginePrecisionTest, Fp32TopKMatchesWidenedRanking) {
  const TierPair graphs = ServingGraphs(13);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.top_k = 10;
  auto engine = QueryEngine::Create(graphs.fp32,
                                    std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  QueryResult result = engine->Query(99);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.top.size(), 10u);

  auto tpa = Tpa::Preprocess(graphs.fp32, {});
  ASSERT_TRUE(tpa.ok());
  const std::vector<ScoredNode> expected = TopKScores(tpa->QueryF(99), 10);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.top[i].node, expected[i].node) << i;
    EXPECT_EQ(result.top[i].score, expected[i].score) << i;
  }
}

TEST(EnginePrecisionTest, Fp32CacheEntriesCostHalfTheBytes) {
  const TierPair graphs = ServingGraphs(17);
  const std::vector<NodeId> seeds = {1, 2, 3, 4};

  auto serve = [&](const Graph& graph) {
    QueryEngineOptions options;
    options.num_threads = 1;
    options.cache_capacity = 16;
    auto engine =
        QueryEngine::Create(graph, std::make_unique<TpaMethod>(), options);
    TPA_CHECK(engine.ok());
    engine->QueryBatch(seeds);
    return engine->cache_stats();
  };

  const QueryEngine::CacheStats stats64 = serve(graphs.fp64);
  const QueryEngine::CacheStats stats32 = serve(graphs.fp32);
  ASSERT_EQ(stats64.entries, seeds.size());
  ASSERT_EQ(stats32.entries, seeds.size());
  EXPECT_EQ(stats64.bytes,
            seeds.size() * graphs.fp64.num_nodes() * sizeof(double));
  EXPECT_EQ(stats32.bytes,
            seeds.size() * graphs.fp32.num_nodes() * sizeof(float));
  EXPECT_EQ(stats32.bytes * 2, stats64.bytes);

  // Warm repeats serve from cache in the fp32 shape.
  QueryEngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 16;
  auto engine = QueryEngine::Create(graphs.fp32,
                                    std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());
  const QueryResult cold = engine->Query(9);
  const QueryResult warm = engine->Query(9);
  ASSERT_TRUE(warm.from_cache);
  ASSERT_EQ(warm.scores_f32.size(), cold.scores_f32.size());
  for (size_t i = 0; i < cold.scores_f32.size(); ++i) {
    ASSERT_EQ(warm.scores_f32[i], cold.scores_f32[i]) << i;
  }
}

TEST(EnginePrecisionTest, TiersNeverServeEachOthersCacheEntries) {
  // The isolation contract at the ResultCache level: a seed cached at one
  // tier is a *miss* for the other tier's compatibility predicate, and the
  // refresh replaces the entry (the byte accounting follows).
  ResultCache cache(/*capacity=*/8);
  cache.Put(1, std::make_shared<const CachedResult>(CachedResult::Dense(
                   std::vector<double>(100, 0.5))));

  auto wants = [](la::Precision precision) {
    return [precision](const CachedResult& entry) {
      return !entry.topk_only && entry.precision == precision;
    };
  };

  // Same tier: hit.  Other tier: miss, even though the seed is present.
  EXPECT_NE(cache.GetMatching(1, wants(la::Precision::kFloat64)), nullptr);
  EXPECT_EQ(cache.GetMatching(1, wants(la::Precision::kFloat32)), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.bytes(), 100 * sizeof(double));

  // The fp32 serve path refreshes the entry; now the fp64 side misses.
  cache.Put(1, std::make_shared<const CachedResult>(CachedResult::Dense(
                   std::vector<float>(100, 0.5f))));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 100 * sizeof(float));
  EXPECT_NE(cache.GetMatching(1, wants(la::Precision::kFloat32)), nullptr);
  EXPECT_EQ(cache.GetMatching(1, wants(la::Precision::kFloat64)), nullptr);
}

TEST(EnginePrecisionTest, TopKOnlyCacheEntriesCostOofK) {
  const TierPair graphs = ServingGraphs(19);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.top_k = 8;
  options.cache_topk_only = true;
  options.cache_capacity = 16;
  auto engine = QueryEngine::Create(graphs.fp64,
                                    std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine.ok());

  const QueryResult cold = engine->Query(42);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_EQ(cold.top.size(), 8u);
  const QueryEngine::CacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  // O(k), not ~8n: one ScoredNode per retained rank.
  EXPECT_EQ(stats.bytes, 8 * sizeof(ScoredNode));
  EXPECT_LT(stats.bytes, graphs.fp64.num_nodes() * sizeof(double));

  const QueryResult warm = engine->Query(42);
  ASSERT_TRUE(warm.from_cache);
  ASSERT_EQ(warm.top.size(), cold.top.size());
  for (size_t i = 0; i < cold.top.size(); ++i) {
    EXPECT_EQ(warm.top[i].node, cold.top[i].node) << i;
    EXPECT_EQ(warm.top[i].score, cold.top[i].score) << i;
  }
}

TEST(EnginePrecisionTest, DenseRequestBypassesAndRefreshesTopKOnlyEntry) {
  // A dense-requesting engine must not mistake a top-k-only entry for a
  // dense vector: the ResultCache predicate misses and the recompute
  // refreshes the entry to the dense shape.
  ResultCache cache(/*capacity=*/4);
  cache.Put(7, std::make_shared<const CachedResult>(CachedResult::TopKOnly(
                   la::Precision::kFloat64,
                   {{3, 0.5}, {1, 0.25}, {0, 0.125}})));
  EXPECT_EQ(cache.bytes(), 3 * sizeof(ScoredNode));

  auto dense_fp64 = [](const CachedResult& entry) {
    return !entry.topk_only && entry.precision == la::Precision::kFloat64;
  };
  auto topk_fp64 = [](const CachedResult& entry) {
    return entry.precision == la::Precision::kFloat64 &&
           (!entry.topk_only || entry.topk.size() >= 3);
  };

  // A top-k request it covers: hit.  A dense request: miss → refresh.
  EXPECT_NE(cache.GetMatching(7, topk_fp64), nullptr);
  EXPECT_EQ(cache.GetMatching(7, dense_fp64), nullptr);
  cache.Put(7, std::make_shared<const CachedResult>(CachedResult::Dense(
                   std::vector<double>(50, 1.0))));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 50 * sizeof(double));
  ResultCache::Entry refreshed = cache.GetMatching(7, dense_fp64);
  ASSERT_NE(refreshed, nullptr);
  EXPECT_FALSE(refreshed->topk_only);
}

TEST(EnginePrecisionTest, KAutoResolvesFromMaterializedCsrBytes) {
  // The kAuto heuristic keys on the actual (precision-dependent) CSR bytes
  // and sizes the group so one block row fills a 64-byte cache line: 8
  // seeds at fp64, 16 at fp32.  Both tiers of the same graph must resolve
  // exactly per the documented rule against the detected LLC.
  const TierPair graphs = ServingGraphs(23);
  ASSERT_LT(graphs.fp32.SizeBytes(), graphs.fp64.SizeBytes());

  for (const Graph* graph : {&graphs.fp64, &graphs.fp32}) {
    QueryEngineOptions options;
    options.num_threads = 1;
    options.batch_block_size = QueryEngineOptions::kAuto;
    auto engine =
        QueryEngine::Create(*graph, std::make_unique<TpaMethod>(), options);
    ASSERT_TRUE(engine.ok());
    const int line_width =
        graph->value_precision() == la::Precision::kFloat32 ? 16 : 8;
    const int expected =
        graph->SizeBytes() > DetectLastLevelCacheBytes() ? line_width : 0;
    EXPECT_EQ(engine->options().batch_block_size, expected);
  }
}

TEST(EnginePrecisionTest, Fp64OnlyMethodsAreRefusedOnFp32Graphs) {
  const TierPair graphs = ServingGraphs(29);
  // FORA has no fp32 path; Create must refuse up front instead of letting
  // the typed CSR accessors CHECK-fail mid-preprocess.
  auto engine = QueryEngine::CreateFromRegistry(graphs.fp32, "FORA");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  // The same method is fine at fp64, and TPA is fine at fp32.
  EXPECT_TRUE(QueryEngine::CreateFromRegistry(graphs.fp64, "FORA").ok());
  EXPECT_TRUE(QueryEngine::CreateFromRegistry(graphs.fp32, "TPA").ok());
}

TEST(EnginePrecisionTest, AsyncServesFp32BitwiseWithBlockingPath) {
  const TierPair graphs = ServingGraphs(31);
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.batch_block_size = 4;

  auto async = AsyncQueryEngine::Create(
      graphs.fp32, std::make_unique<TpaMethod>(), engine_options);
  ASSERT_TRUE(async.ok());
  auto blocking = QueryEngine::Create(graphs.fp32,
                                      std::make_unique<TpaMethod>(),
                                      engine_options);
  ASSERT_TRUE(blocking.ok());

  std::vector<QueryTicket> tickets;
  const std::vector<NodeId> seeds = {3, 141, 7, 399, 27, 499, 0, 88};
  tickets.reserve(seeds.size());
  for (NodeId seed : seeds) tickets.push_back((*async)->Submit(seed));
  for (size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult& got = tickets[i].Wait();
    ASSERT_TRUE(got.status.ok());
    const QueryResult expected = blocking->Query(seeds[i]);
    ASSERT_EQ(got.scores_f32.size(), expected.scores_f32.size());
    for (size_t j = 0; j < expected.scores_f32.size(); ++j) {
      ASSERT_EQ(got.scores_f32[j], expected.scores_f32[j])
          << seeds[i] << "," << j;
    }
  }
}

TEST(EnginePrecisionTest, DualTierServingSharesOneTopology) {
  // The fp32 graph is a RematerializeWithPrecision sibling: both tiers
  // alias one set of index arrays, so a process serving both precisions
  // holds the topology once.
  const TierPair graphs = ServingGraphs(37);
  ASSERT_EQ(graphs.fp64.Transition().structure().col_indices.data(),
            graphs.fp32.TransitionF().structure().col_indices.data());
  ASSERT_EQ(graphs.fp64.InNeighbors(0).data(),
            graphs.fp32.InNeighbors(0).data());

  QueryEngineOptions options;
  options.num_threads = 2;
  options.batch_block_size = 0;
  auto engine64 = QueryEngine::Create(graphs.fp64,
                                      std::make_unique<TpaMethod>(), options);
  auto engine32 = QueryEngine::Create(graphs.fp32,
                                      std::make_unique<TpaMethod>(), options);
  ASSERT_TRUE(engine64.ok() && engine32.ok());

  // Each tier serves its own native path off the shared topology, and the
  // fp32 scores track the fp64 ones within fp32 rounding.
  for (NodeId seed : {NodeId{42}, NodeId{0}, NodeId{499}}) {
    const QueryResult r64 = engine64->Query(seed);
    const QueryResult r32 = engine32->Query(seed);
    ASSERT_TRUE(r64.status.ok() && r32.status.ok());
    ASSERT_EQ(r64.scores.size(), graphs.fp64.num_nodes());
    ASSERT_EQ(r32.scores_f32.size(), graphs.fp32.num_nodes());
    for (size_t i = 0; i < r64.scores.size(); ++i) {
      ASSERT_NEAR(static_cast<double>(r32.scores_f32[i]), r64.scores[i], 1e-4)
          << seed << "," << i;
    }
  }
}

/// Rebuilds `graph`'s edge set through GraphBuilder with the given value
/// storage (generators always build explicit; the serving comparison needs
/// a value-free twin of the identical cleaned edge set).
Graph RebuildWithStorage(const Graph& graph, ValueStorage storage) {
  GraphBuilder builder(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) builder.AddEdge(u, v);
  }
  BuildOptions options;
  // The generator's graph is already cleaned; keep it verbatim (its
  // self-loops are the dangling policy's, which kKeep must not re-add).
  options.remove_self_loops = false;
  options.dangling_policy = DanglingPolicy::kKeep;
  options.value_storage = storage;
  auto rebuilt = builder.Build(options);
  TPA_CHECK(rebuilt.ok());
  return std::move(rebuilt).value();
}

TEST(EnginePrecisionTest, ValueFreeGraphServesBitwiseIdenticalResults) {
  DcsbmOptions graph_options;
  graph_options.nodes = 400;
  graph_options.edges = 4000;
  graph_options.blocks = 8;
  graph_options.seed = 41;
  auto generated = GenerateDcsbm(graph_options);
  ASSERT_TRUE(generated.ok());
  const Graph explicit_graph =
      RebuildWithStorage(*generated, ValueStorage::kExplicit);
  const Graph value_free =
      RebuildWithStorage(*generated, ValueStorage::kRowConstant);
  ASSERT_EQ(value_free.value_storage(), ValueStorage::kRowConstant);
  // The value-free twin drops the 2·nnz fp64 values for n column scales —
  // the footprint the kAuto threshold keys on.
  ASSERT_LT(value_free.SizeBytes(), explicit_graph.SizeBytes());

  QueryEngineOptions options;
  options.num_threads = 2;
  for (int batch_block_size : {0, 4}) {
    options.batch_block_size = batch_block_size;
    auto baseline = QueryEngine::Create(
        explicit_graph, std::make_unique<TpaMethod>(), options);
    auto engine = QueryEngine::Create(value_free,
                                      std::make_unique<TpaMethod>(), options);
    ASSERT_TRUE(baseline.ok() && engine.ok());

    const std::vector<NodeId> seeds = {5, 123, 399, 0, 321, 77, 9, 250};
    const std::vector<QueryResult> expected = baseline->QueryBatch(seeds);
    const std::vector<QueryResult> got = engine->QueryBatch(seeds);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t q = 0; q < expected.size(); ++q) {
      ASSERT_TRUE(got[q].status.ok());
      ASSERT_EQ(got[q].scores.size(), expected[q].scores.size());
      for (size_t i = 0; i < expected[q].scores.size(); ++i) {
        ASSERT_EQ(got[q].scores[i], expected[q].scores[i])
            << "block " << batch_block_size << " seed " << seeds[q]
            << " node " << i;
      }
    }
  }
}

}  // namespace
}  // namespace tpa

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cpi.h"
#include "core/tpa.h"
#include "engine/thread_pool.h"
#include "graph/generators.h"
#include "la/dense_block.h"
#include "method/power_iteration.h"
#include "method/registry.h"
#include "method/tpa_method.h"
#include "util/check.h"
#include "util/memory_budget.h"

namespace tpa {
namespace {

Graph TestGraph(uint64_t seed = 31) {
  DcsbmOptions options;
  options.nodes = 400;
  options.edges = 4000;
  options.blocks = 8;
  options.seed = seed;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

void ExpectVectorBitwiseEq(const std::vector<double>& got,
                           const std::vector<double>& expected,
                           const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << label << " node " << i;
  }
}

TEST(CpiRunBatchTest, MatchesScalarRunBitwise) {
  Graph graph = TestGraph();
  const std::vector<NodeId> seeds = {0, 7, 200, 399, 7};  // includes a dup

  CpiOptions options;
  options.start_iteration = 0;
  options.terminal_iteration = 4;  // TPA's family window shape

  auto block = Cpi::RunBatch(graph, seeds, options);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->rows(), graph.num_nodes());
  ASSERT_EQ(block->num_vectors(), seeds.size());

  for (size_t b = 0; b < seeds.size(); ++b) {
    auto scalar = Cpi::Run(graph, {seeds[b]}, options);
    ASSERT_TRUE(scalar.ok());
    ExpectVectorBitwiseEq(block->ExtractVector(b), scalar->scores,
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(CpiRunBatchTest, UnboundedRunHonorsPerSeedConvergence) {
  Graph graph = TestGraph(57);
  // Loose tolerance so different seeds converge at different iterations —
  // the per-vector freeze must reproduce each scalar run's stopping point.
  CpiOptions options;
  options.tolerance = 1e-4;

  const std::vector<NodeId> seeds = {1, 50, 399};
  auto block = Cpi::RunBatch(graph, seeds, options);
  ASSERT_TRUE(block.ok());
  for (size_t b = 0; b < seeds.size(); ++b) {
    auto scalar = Cpi::Run(graph, {seeds[b]}, options);
    ASSERT_TRUE(scalar.ok());
    ExpectVectorBitwiseEq(block->ExtractVector(b), scalar->scores,
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(CpiRunBatchTest, WindowedStartSkipsEarlyIterations) {
  Graph graph = TestGraph();
  CpiOptions options;
  options.start_iteration = 3;
  options.terminal_iteration = 9;

  const std::vector<NodeId> seeds = {5, 123};
  auto block = Cpi::RunBatch(graph, seeds, options);
  ASSERT_TRUE(block.ok());
  for (size_t b = 0; b < seeds.size(); ++b) {
    auto scalar = Cpi::Run(graph, {seeds[b]}, options);
    ASSERT_TRUE(scalar.ok());
    ExpectVectorBitwiseEq(block->ExtractVector(b), scalar->scores,
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(CpiRunBatchTest, RejectsBadInput) {
  Graph graph = TestGraph();
  EXPECT_FALSE(Cpi::RunBatch(graph, {}, {}).ok());
  const std::vector<NodeId> bad = {graph.num_nodes()};
  EXPECT_EQ(Cpi::RunBatch(graph, bad, {}).status().code(),
            StatusCode::kOutOfRange);
  CpiOptions invalid;
  invalid.restart_probability = 2.0;
  const std::vector<NodeId> seeds = {0};
  EXPECT_FALSE(Cpi::RunBatch(graph, seeds, invalid).ok());
}

TEST(CpiRunBatchTest, ThresholdSweepAgreesWithDenseOnlyScalar) {
  // The strongest cross-pin: a fully sparse batch (threshold 1) against a
  // fully dense scalar run (threshold 0), plus the default in between.
  Graph graph = TestGraph();
  const std::vector<NodeId> seeds = {0, 7, 200, 399};

  CpiOptions dense_scalar;
  dense_scalar.terminal_iteration = 4;
  dense_scalar.frontier_density_threshold = 0.0;

  for (double threshold : {0.125, 1.0}) {
    CpiOptions batch_options = dense_scalar;
    batch_options.frontier_density_threshold = threshold;
    auto block = Cpi::RunBatch(graph, seeds, batch_options);
    ASSERT_TRUE(block.ok());
    for (size_t b = 0; b < seeds.size(); ++b) {
      auto scalar = Cpi::Run(graph, {seeds[b]}, dense_scalar);
      ASSERT_TRUE(scalar.ok());
      ExpectVectorBitwiseEq(block->ExtractVector(b), scalar->scores,
                            "threshold " + std::to_string(threshold) +
                                " seed " + std::to_string(seeds[b]));
    }
  }
}

TEST(CpiRunBatchTest, ParallelDenseTailMatchesSerialBitwise) {
  Graph graph = TestGraph();
  const std::vector<NodeId> seeds = {1, 50, 399, 200};

  CpiOptions serial_options;
  serial_options.tolerance = 1e-6;  // long enough to reach the dense tail
  auto serial = Cpi::RunBatch(graph, seeds, serial_options);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(3);
  CpiOptions parallel_options = serial_options;
  parallel_options.task_runner = &pool;
  auto parallel = Cpi::RunBatch(graph, seeds, parallel_options);
  ASSERT_TRUE(parallel.ok());
  for (size_t b = 0; b < seeds.size(); ++b) {
    ExpectVectorBitwiseEq(parallel->ExtractVector(b),
                          serial->ExtractVector(b),
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(CpiRunBatchTest, ReusedWorkspaceMatchesFreshRuns) {
  Graph graph = TestGraph();
  Cpi::Workspace workspace;
  CpiOptions options;
  options.terminal_iteration = 4;

  const std::vector<std::vector<NodeId>> batches = {
      {0, 7}, {399}, {200, 200, 5}, {0, 7}};
  for (const auto& seeds : batches) {
    auto reused = Cpi::RunBatch(graph, seeds, options, &workspace);
    auto fresh = Cpi::RunBatch(graph, seeds, options);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(fresh.ok());
    for (size_t b = 0; b < seeds.size(); ++b) {
      ExpectVectorBitwiseEq(reused->ExtractVector(b),
                            fresh->ExtractVector(b),
                            "batch seed " + std::to_string(seeds[b]));
    }
  }
}

TEST(TpaQueryBatchTest, BitwiseMatchesSequentialQuery) {
  Graph graph = TestGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());

  const std::vector<NodeId> seeds = {0, 13, 250, 399, 13, 77};
  auto block = tpa->QueryBatch(seeds);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->num_vectors(), seeds.size());
  for (size_t b = 0; b < seeds.size(); ++b) {
    ExpectVectorBitwiseEq(block->ExtractVector(b), tpa->Query(seeds[b]),
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(TpaQueryBatchTest, RejectsBadSeeds) {
  Graph graph = TestGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  EXPECT_FALSE(tpa->QueryBatch({}).ok());
  const std::vector<NodeId> bad = {0, graph.num_nodes()};
  EXPECT_EQ(tpa->QueryBatch(bad).status().code(), StatusCode::kOutOfRange);
}

TEST(QueryBatchDenseTest, TpaMethodNativePathIsBitwise) {
  Graph graph = TestGraph();
  TpaMethod method;
  MemoryBudget unlimited;
  ASSERT_TRUE(method.Preprocess(graph, unlimited).ok());
  EXPECT_TRUE(method.SupportsBatchQuery());

  const std::vector<NodeId> seeds = {9, 99, 199};
  auto block = method.QueryBatchDense(seeds);
  ASSERT_TRUE(block.ok());
  for (size_t b = 0; b < seeds.size(); ++b) {
    auto scalar = method.Query(seeds[b]);
    ASSERT_TRUE(scalar.ok());
    ExpectVectorBitwiseEq(block->ExtractVector(b), *scalar,
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(QueryBatchDenseTest, PowerIterationNativePathIsBitwise) {
  Graph graph = TestGraph();
  PowerIterationRwr method;
  MemoryBudget unlimited;
  ASSERT_TRUE(method.Preprocess(graph, unlimited).ok());
  EXPECT_TRUE(method.SupportsBatchQuery());

  const std::vector<NodeId> seeds = {2, 77, 388};
  auto block = method.QueryBatchDense(seeds);
  ASSERT_TRUE(block.ok());
  for (size_t b = 0; b < seeds.size(); ++b) {
    auto scalar = method.Query(seeds[b]);
    ASSERT_TRUE(scalar.ok());
    ExpectVectorBitwiseEq(block->ExtractVector(b), *scalar,
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(QueryBatchDenseTest, DefaultLoopImplementationMatchesQuery) {
  // BRPPR does not override QueryBatchDense; the base per-seed loop must
  // return exactly what Query returns, vector for vector.
  Graph graph = TestGraph();
  auto method = CreateMethod("BRPPR", {});
  ASSERT_TRUE(method.ok());
  EXPECT_FALSE((*method)->SupportsBatchQuery());
  MemoryBudget unlimited;
  ASSERT_TRUE((*method)->Preprocess(graph, unlimited).ok());

  const std::vector<NodeId> seeds = {4, 44};
  auto block = (*method)->QueryBatchDense(seeds);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->num_vectors(), seeds.size());
  for (size_t b = 0; b < seeds.size(); ++b) {
    auto scalar = (*method)->Query(seeds[b]);
    ASSERT_TRUE(scalar.ok());
    ExpectVectorBitwiseEq(block->ExtractVector(b), *scalar,
                          "seed " + std::to_string(seeds[b]));
  }
  EXPECT_FALSE((*method)->QueryBatchDense({}).ok());
}

TEST(QueryBatchDenseTest, FailsBeforePreprocess) {
  TpaMethod tpa_method;
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(tpa_method.QueryBatchDense(seeds).status().code(),
            StatusCode::kFailedPrecondition);
  PowerIterationRwr power;
  EXPECT_EQ(power.QueryBatchDense(seeds).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace tpa

#include "graph/builder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "la/vector_ops.h"

namespace tpa {
namespace {

TEST(GraphBuilderTest, BuildsSimpleChain) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  BuildOptions options;
  options.dangling_policy = DanglingPolicy::kKeep;
  auto graph = builder.Build(options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 3u);
  EXPECT_EQ(graph->num_edges(), 2u);
  EXPECT_EQ(graph->OutDegree(0), 1u);
  EXPECT_EQ(graph->OutNeighbors(0)[0], 1u);
  EXPECT_EQ(graph->InDegree(2), 1u);
  EXPECT_EQ(graph->InNeighbors(2)[0], 1u);
  EXPECT_EQ(graph->CountDangling(), 1u);  // node 2
}

TEST(GraphBuilderTest, DeduplicatesEdges) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  // 1 deduped edge + 1 self-loop for dangling node 1.
  EXPECT_EQ(graph->OutDegree(0), 1u);
}

TEST(GraphBuilderTest, RemovesSelfLoopsFromInput) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  BuildOptions options;
  options.dangling_policy = DanglingPolicy::kKeep;
  auto graph = builder.Build(options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 1u);
}

TEST(GraphBuilderTest, SelfLoopPolicyFixesDangling) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  auto graph = builder.Build();  // default: kAddSelfLoop
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->CountDangling(), 0u);
  EXPECT_EQ(graph->OutNeighbors(1)[0], 1u);
  EXPECT_EQ(graph->OutNeighbors(2)[0], 2u);
}

TEST(GraphBuilderTest, NeighborsSortedById) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 3);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  auto neighbors = graph->OutNeighbors(0);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0], 1u);
  EXPECT_EQ(neighbors[1], 3u);
  EXPECT_EQ(neighbors[2], 4u);
}

TEST(GraphBuilderTest, EmptyGraphRejected) {
  GraphBuilder builder(0);
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderDeathTest, OutOfRangeEdgeDies) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.AddEdge(0, 2), "CHECK");
}

// The CSR representability validators at their exact uint32/uint64
// boundaries: the largest legal value passes, one past it is a clean
// InvalidArgument (never a silent truncation).
TEST(GraphBuilderTest, ValidateNodeCountBoundaries) {
  EXPECT_EQ(ValidateNodeCount(0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateNodeCount(1).ok());
  EXPECT_TRUE(ValidateNodeCount(uint64_t{0xFFFFFFFF}).ok());
  EXPECT_EQ(ValidateNodeCount(uint64_t{0x100000000}).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, ValidateRowDegreeBoundaries) {
  EXPECT_TRUE(ValidateRowDegree(7, 0).ok());
  EXPECT_TRUE(ValidateRowDegree(7, uint64_t{0xFFFFFFFF}).ok());
  const Status status = ValidateRowDegree(7, uint64_t{0x100000000});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The message names the offending node so the failure is actionable.
  EXPECT_NE(status.message().find("7"), std::string::npos);
}

TEST(GraphBuilderTest, ValidateEdgeCountBoundaries) {
  EXPECT_TRUE(ValidateEdgeCount(4, 0).ok());
  // The limit leaves room for one dangling self-loop per node in uint64
  // offset arithmetic.
  const uint64_t nodes = 1000;
  EXPECT_TRUE(ValidateEdgeCount(nodes, UINT64_MAX - nodes).ok());
  EXPECT_EQ(ValidateEdgeCount(nodes, UINT64_MAX - nodes + 1).code(),
            StatusCode::kInvalidArgument);
  // An invalid node count fails the edge validation too.
  EXPECT_EQ(ValidateEdgeCount(uint64_t{0x100000000}, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphTest, MultiplyTransposeIsColumnStochastic) {
  // With self-loop dangling policy, Ã^T preserves the L1 norm of
  // non-negative vectors — the property the paper's lemmas rely on.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());

  std::vector<double> x = {0.25, 0.25, 0.25, 0.25};
  std::vector<double> y;
  graph->MultiplyTranspose(x, y);
  EXPECT_NEAR(la::NormL1(y), 1.0, 1e-12);
}

TEST(GraphTest, MultiplyTransposeExactValues) {
  // 0 → {1, 2}: x[0] splits evenly.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  BuildOptions options;
  options.dangling_policy = DanglingPolicy::kKeep;
  auto graph = builder.Build(options);
  ASSERT_TRUE(graph.ok());
  std::vector<double> y;
  graph->MultiplyTranspose({1.0, 0.0, 0.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
  EXPECT_DOUBLE_EQ(y[2], 0.5);
}

TEST(GraphTest, ExplicitFp64SizeBytesCountsOutValuesOnly) {
  // 0 → {1, 2}, 1 → 2, 2 → 3, plus the dangling self-loop 3 → 3.  Both
  // directions store n+1 offsets and m indices; only the out-CSR carries
  // one fp64 value per edge.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const size_t n = graph->num_nodes();
  const size_t m = graph->num_edges();
  ASSERT_EQ(m, 5u);
  const size_t structure_bytes =
      (n + 1) * sizeof(uint64_t) + m * sizeof(uint32_t);
  EXPECT_EQ(la::CsrStructureBytes(graph->Transition().structure()),
            structure_bytes);
  EXPECT_EQ(graph->SizeBytes(), 2 * structure_bytes + m * sizeof(double));
}

TEST(GraphTest, SizeBytesScalesWithEdges) {
  GraphBuilder small_builder(10), large_builder(10);
  small_builder.AddEdge(0, 1);
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      if (u != v) large_builder.AddEdge(u, v);
    }
  }
  auto small = small_builder.Build();
  auto large = large_builder.Build();
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->SizeBytes(), small->SizeBytes());
}

}  // namespace
}  // namespace tpa

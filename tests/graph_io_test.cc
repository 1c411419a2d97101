#include "graph/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.h"

namespace tpa {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/graph_io_test_" +
            std::to_string(::getpid()) + ".txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }

  std::string path_;
};

TEST_F(GraphIoTest, LoadsBasicEdgeList) {
  WriteFile("0 1\n1 2\n2 0\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 3u);
  EXPECT_EQ(graph->num_edges(), 3u);
}

TEST_F(GraphIoTest, SkipsCommentsAndBlankLines) {
  WriteFile("# comment\n% konect style\n\n0 1\n\n1 0\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 2u);
}

TEST_F(GraphIoTest, InfersNodeCountFromMaxId) {
  WriteFile("0 7\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 8u);
}

TEST_F(GraphIoTest, ExplicitNodeCountValidatesIds) {
  WriteFile("0 5\n");
  auto graph = LoadEdgeList(path_, /*num_nodes=*/3);
  EXPECT_EQ(graph.status().code(), StatusCode::kOutOfRange);
}

TEST_F(GraphIoTest, MalformedLineReportsLineNumber) {
  WriteFile("0 1\nnot an edge\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_NE(graph.status().message().find(":2"), std::string::npos);
}

TEST_F(GraphIoTest, MissingFileIsNotFound) {
  auto graph = LoadEdgeList(path_ + ".does-not-exist");
  EXPECT_EQ(graph.status().code(), StatusCode::kNotFound);
}

TEST_F(GraphIoTest, RoundTripPreservesGraph) {
  ErdosRenyiOptions options;
  options.nodes = 50;
  options.edges = 200;
  options.seed = 5;
  auto original = GenerateErdosRenyi(options);
  ASSERT_TRUE(original.ok());

  ASSERT_TRUE(SaveEdgeList(*original, path_).ok());
  auto loaded = LoadEdgeList(path_, original->num_nodes());
  ASSERT_TRUE(loaded.ok());

  ASSERT_EQ(loaded->num_nodes(), original->num_nodes());
  ASSERT_EQ(loaded->num_edges(), original->num_edges());
  for (NodeId u = 0; u < original->num_nodes(); ++u) {
    auto a = original->OutNeighbors(u);
    auto b = loaded->OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST_F(GraphIoTest, HandlesTabsAndCarriageReturns) {
  WriteFile("0\t1\r\n1\t0\r\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 2u);
}

TEST_F(GraphIoTest, RejectsTrailingGarbageAfterSecondId) {
  WriteFile("0 1\n1 2junk\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(graph.status().message().find(":2"), std::string::npos);
}

TEST_F(GraphIoTest, RejectsThirdFieldOnEdgeLine) {
  WriteFile("1 2 3\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, AcceptsTrailingWhitespaceAfterSecondId) {
  WriteFile("0 1 \t\r\n1 0\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 2u);
}

TEST_F(GraphIoTest, RoundTripKeepsIsolatedTrailingNodes) {
  // Nodes 3..9 have no edges, so the edge lines alone name only ids 0..2.
  // SaveEdgeList's header records the true count and LoadEdgeList (with
  // num_nodes unset) must honor it instead of shrinking to max id + 1.
  GraphBuilder builder(10);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  BuildOptions keep;  // no self-loops: nodes 3..9 stay truly isolated
  keep.dangling_policy = DanglingPolicy::kKeep;
  auto original = builder.Build(keep);
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(original->num_nodes(), 10u);
  ASSERT_EQ(original->num_edges(), 3u);

  ASSERT_TRUE(SaveEdgeList(*original, path_).ok());
  auto loaded = LoadEdgeList(path_, /*num_nodes=*/0, keep);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 10u);
  EXPECT_EQ(loaded->num_edges(), original->num_edges());
}

TEST_F(GraphIoTest, ExplicitNodeCountOverridesHeader) {
  WriteFile("# directed edge list: 10 nodes, 1 edges\n0 1\n");
  auto graph = LoadEdgeList(path_, /*num_nodes=*/4);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 4u);
}

TEST_F(GraphIoTest, RejectsEdgeBeyondHeaderNodeCount) {
  WriteFile("# directed edge list: 3 nodes, 1 edges\n0 7\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, EmptyFileWithoutNodeCountIsAnError) {
  WriteFile("");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, CommentOnlyFileWithoutNodeCountIsAnError) {
  WriteFile("# just a comment\n% another\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, EdgeFreeFileWithHeaderBuildsEmptyGraph) {
  WriteFile("# directed edge list: 5 nodes, 0 edges\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 5u);
}

TEST_F(GraphIoTest, EmptyFileWithExplicitNodeCountStillLoads) {
  WriteFile("");
  auto graph = LoadEdgeList(path_, /*num_nodes=*/3);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 3u);
}

// Node ids must fit NodeId with max_id + 1 still a valid node count: each
// of these used to be cast to uint32 before any check (a CHECK abort for
// 2^32 - 1, a silently wrapped graph for the others).
TEST_F(GraphIoTest, RejectsNodeIdAtTheUint32Limit) {
  WriteFile("0 4294967295\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(graph.status().message().find(":1"), std::string::npos);
}

TEST_F(GraphIoTest, RejectsNodeIdPastTheUint32Range) {
  WriteFile("0 4294967296\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, RejectsWrappedSourceAndTargetIds) {
  WriteFile("# a comment\n5 4294967301\n");
  auto graph = LoadEdgeList(path_);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(graph.status().message().find(":2"), std::string::npos);
}

}  // namespace
}  // namespace tpa

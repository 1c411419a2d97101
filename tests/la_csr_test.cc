#include "la/csr_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "la/vector_ops.h"
#include "util/check.h"
#include "util/random.h"

namespace tpa {
namespace {

la::CsrMatrix SmallMatrix() {
  // [ 0  2  0 ]
  // [ 1  0  3 ]
  // [ 0  0  0 ]
  return la::CsrMatrix(3, 3, {0, 1, 3, 3}, {1, 0, 2}, {2.0, 1.0, 3.0});
}

TEST(CsrMatrixTest, BasicAccessors) {
  la::CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.RowNnz(0), 1u);
  EXPECT_EQ(m.RowNnz(1), 2u);
  EXPECT_EQ(m.RowNnz(2), 0u);
  ASSERT_EQ(m.RowIndices(1).size(), 2u);
  EXPECT_EQ(m.RowIndices(1)[0], 0u);
  EXPECT_EQ(m.RowIndices(1)[1], 2u);
  EXPECT_EQ(m.RowValues(1)[1], 3.0);
  EXPECT_EQ(m.SizeBytes(),
            4 * sizeof(uint64_t) + 3 * sizeof(uint32_t) + 3 * sizeof(double));
}

TEST(CsrMatrixTest, SpMvTransposeScatter) {
  la::CsrMatrix m = SmallMatrix();
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y;
  m.SpMvTranspose(x, y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 2.0);  // 1·x1
  EXPECT_DOUBLE_EQ(y[1], 2.0);  // 2·x0
  EXPECT_DOUBLE_EQ(y[2], 6.0);  // 3·x1
}

TEST(CsrMatrixTest, EmptyMatrix) {
  la::CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(CsrMatrixDeathTest, RejectsMalformedArrays) {
  EXPECT_DEATH(la::CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), "CHECK");  // offsets
  EXPECT_DEATH(la::CsrMatrix(1, 1, {0, 1}, {3}, {1.0}), "CHECK");  // col range
  EXPECT_DEATH(la::CsrMatrix(1, 1, {0, 1}, {0}, {1.0, 2.0}), "CHECK");
}

/// Reference Ã^T·x straight off the adjacency lists, the pre-CSR kernel.
std::vector<double> AdjacencyMatVec(const Graph& graph,
                                    const std::vector<double>& x) {
  std::vector<double> y(graph.num_nodes(), 0.0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto out = graph.OutNeighbors(u);
    if (out.empty()) continue;
    const double share = x[u] / static_cast<double>(out.size());
    for (NodeId v : out) y[v] += share;
  }
  return y;
}

class CsrGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrGraphTest, SpMvMatchesAdjacencyMatVec) {
  RmatOptions options;
  options.scale = 9;
  options.edges = 6000;
  options.seed = GetParam();
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());

  Rng rng(GetParam());
  std::vector<double> x(graph->num_nodes());
  for (double& v : x) v = rng.NextDouble();

  const std::vector<double> reference = AdjacencyMatVec(*graph, x);
  std::vector<double> push;
  graph->MultiplyTranspose(x, push);

  ASSERT_EQ(push.size(), reference.size());
  EXPECT_LT(la::L1Distance(push, reference), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrGraphTest, ::testing::Values(1u, 7u, 42u));

TEST(CsrGraphTest, TransitionMatricesAgreeWithDegrees) {
  DcsbmOptions options;
  options.nodes = 300;
  options.edges = 2500;
  options.seed = 5;
  auto graph = GenerateDcsbm(options);
  ASSERT_TRUE(graph.ok());

  const la::CsrMatrix& out = graph->Transition();
  EXPECT_EQ(out.rows(), graph->num_nodes());
  EXPECT_EQ(out.nnz(), graph->num_edges());

  // Row u of Ã holds weight 1/outdeg(u) on each out-edge.
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    ASSERT_EQ(out.RowNnz(u), graph->OutDegree(u));
    for (double w : out.RowValues(u)) {
      EXPECT_DOUBLE_EQ(w, 1.0 / graph->OutDegree(u));
    }
  }
  // The in-topology lists each edge (u → v) once, under v.
  uint64_t in_edges = 0;
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    in_edges += graph->InDegree(v);
    for (NodeId u : graph->InNeighbors(v)) {
      const auto targets = graph->OutNeighbors(u);
      EXPECT_TRUE(std::binary_search(targets.begin(), targets.end(), v));
    }
  }
  EXPECT_EQ(in_edges, graph->num_edges());
}

TEST(CsrGraphTest, SpMvPreservesMassOnNonDanglingGraph) {
  // Row-stochastic Ã: a transition product preserves the L1 mass exactly up
  // to rounding when no node is dangling.
  ErdosRenyiOptions options;
  options.nodes = 200;
  options.edges = 3000;
  options.seed = 3;
  auto graph = GenerateErdosRenyi(options);
  ASSERT_TRUE(graph.ok());
  if (graph->CountDangling() > 0) GTEST_SKIP() << "dangling node drew";

  std::vector<double> x(graph->num_nodes(), 1.0 / graph->num_nodes());
  std::vector<double> y;
  graph->MultiplyTranspose(x, y);
  EXPECT_NEAR(la::NormL1(y), 1.0, 1e-12);
}

// MakeCsrStructureChecked is the Status-returning twin of MakeCsrStructure
// for arrays from untrusted arithmetic: every structural invariant failure
// must come back as InvalidArgument, and a valid input must assemble the
// same structure the CHECK-based constructor would.
TEST(MakeCsrStructureCheckedTest, AcceptsAValidStructure) {
  auto csr = la::MakeCsrStructureChecked(3, 3, {0, 2, 2, 3}, {1, 2, 0});
  ASSERT_TRUE(csr.ok()) << csr.status();
  EXPECT_EQ(csr->rows, 3u);
  EXPECT_EQ(csr->cols, 3u);
  EXPECT_EQ(csr->nnz(), 3u);
  EXPECT_EQ(csr->row_offsets[1], 2u);
}

TEST(MakeCsrStructureCheckedTest, AcceptsAnEmptyMatrix) {
  auto csr = la::MakeCsrStructureChecked(2, 2, {0, 0, 0}, {});
  ASSERT_TRUE(csr.ok()) << csr.status();
  EXPECT_EQ(csr->nnz(), 0u);
}

TEST(MakeCsrStructureCheckedTest, RejectsEveryBrokenInvariant) {
  // Offsets array has the wrong length for the row count.
  EXPECT_EQ(la::MakeCsrStructureChecked(3, 3, {0, 1, 1}, {0}).status().code(),
            StatusCode::kInvalidArgument);
  // First offset must be zero.
  EXPECT_EQ(
      la::MakeCsrStructureChecked(2, 2, {1, 1, 1}, {0}).status().code(),
      StatusCode::kInvalidArgument);
  // Last offset must equal the index count.
  EXPECT_EQ(
      la::MakeCsrStructureChecked(2, 2, {0, 1, 3}, {0, 1}).status().code(),
      StatusCode::kInvalidArgument);
  // Offsets must be monotone.
  EXPECT_EQ(
      la::MakeCsrStructureChecked(2, 2, {0, 2, 1}, {0}).status().code(),
      StatusCode::kInvalidArgument);
  // Column indices must be inside [0, cols).
  EXPECT_EQ(
      la::MakeCsrStructureChecked(2, 2, {0, 1, 2}, {0, 2}).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tpa

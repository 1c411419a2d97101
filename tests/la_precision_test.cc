/// fp32 precision-tier kernel coverage: every CsrMatrixF scatter flavor —
/// scalar, block, frontier — pinned bitwise against a reference loop
/// that spells out the arithmetic contract (one fp32 rounding per product
/// and per update), on adversarial CSRs with empty rows.  Plus the
/// Graph-level tier plumbing: fp32 materialization, byte accounting,
/// structure parity, and cross-tier numerical agreement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/dense_block.h"
#include "la/precision.h"
#include "la/vector_ops.h"
#include "util/check.h"
#include "util/random.h"

namespace tpa {
namespace {

/// Reference y = A^T x at the fp32 tier: native fp32 updates (the product
/// and the add each round once per edge), rows ascending — the contract of
/// SpMvTranspose and of each vector of SpMmTranspose.
std::vector<float> ReferenceSpMvTranspose(const la::CsrMatrixF& a,
                                          const std::vector<float>& x) {
  std::vector<float> y(a.cols(), 0.0f);
  for (uint32_t r = 0; r < a.rows(); ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;
    const auto indices = a.RowIndices(r);
    const auto values = a.RowValues(r);
    for (size_t e = 0; e < indices.size(); ++e) {
      y[indices[e]] += values[e] * xr;
    }
  }
  return y;
}

void ExpectBitwiseEq(const std::vector<float>& got,
                     const std::vector<float>& expected,
                     const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << label << " entry " << i;
  }
}

std::vector<float> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (float& v : x) v = static_cast<float>(rng.NextDouble() - 0.5);
  return x;
}

/// Full-support sorted frontier of x (every row listed, zero rows included —
/// a legal superset).
std::vector<uint32_t> FullFrontier(size_t rows) {
  std::vector<uint32_t> frontier(rows);
  for (size_t r = 0; r < rows; ++r) frontier[r] = static_cast<uint32_t>(r);
  return frontier;
}

/// Pins every fp32 kernel flavor on one matrix, bitwise:
///  * SpMvTranspose against the reference loop,
///  * SpMmTranspose per vector against the scalar kernel,
///  * the frontier scatters against their dense counterparts.
void CheckPrecisionKernels(const la::CsrMatrixF& a, uint64_t seed,
                           const std::string& label) {
  const std::vector<float> x_rows = RandomVector(a.rows(), seed + 1);

  std::vector<float> yt;
  a.SpMvTranspose(x_rows, yt);
  ExpectBitwiseEq(yt, ReferenceSpMvTranspose(a, x_rows),
                  label + " SpMvTranspose");

  // Frontier scatter with the full-support frontier and threshold 1.0 (no
  // fallthrough possible below rows+1): must equal the dense scatter and
  // emit a superset of y's support.
  if (a.rows() > 0) {
    std::vector<float> yf(a.cols(), 0.0f);
    std::vector<uint32_t> next_frontier;
    la::FrontierScratch scratch;
    const bool stayed = a.SpMvTransposeFrontier(
        x_rows, FullFrontier(a.rows()), 1.0, yf, next_frontier, scratch);
    EXPECT_TRUE(stayed) << label;
    ExpectBitwiseEq(yf, yt, label + " SpMvTransposeFrontier");
    for (size_t c = 0; c < yt.size(); ++c) {
      if (yt[c] != 0.0f) {
        EXPECT_TRUE(std::binary_search(next_frontier.begin(),
                                       next_frontier.end(),
                                       static_cast<uint32_t>(c)))
            << label << " column " << c << " missing from next frontier";
      }
    }
  }

  for (size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8},
                       size_t{16}, size_t{17}}) {
    la::DenseBlockF scatter_x(a.rows(), width);
    std::vector<std::vector<float>> scatter_cols(width);
    for (size_t b = 0; b < width; ++b) {
      scatter_cols[b] = RandomVector(a.rows(), seed + 2000 * (b + 1));
      scatter_x.SetVector(b, scatter_cols[b]);
    }

    la::DenseBlockF scatter_y;
    a.SpMmTranspose(scatter_x, scatter_y);
    for (size_t b = 0; b < width; ++b) {
      std::vector<float> scalar;
      a.SpMvTranspose(scatter_cols[b], scalar);
      ExpectBitwiseEq(scatter_y.ExtractVector(b), scalar,
                      label + " SpMmTranspose width " +
                          std::to_string(width) + " vector " +
                          std::to_string(b));
    }

    // Block frontier scatter against the dense block scatter.
    if (a.rows() > 0) {
      la::DenseBlockF frontier_y(a.cols(), width);
      std::vector<uint32_t> next_frontier;
      la::FrontierScratch scratch;
      const bool stayed =
          a.SpMmTransposeFrontier(scatter_x, FullFrontier(a.rows()), 1.0,
                                  frontier_y, next_frontier, scratch);
      EXPECT_TRUE(stayed) << label;
      for (size_t b = 0; b < width; ++b) {
        ExpectBitwiseEq(frontier_y.ExtractVector(b),
                        scatter_y.ExtractVector(b),
                        label + " SpMmTransposeFrontier width " +
                            std::to_string(width) + " vector " +
                            std::to_string(b));
      }
    }
  }
}

TEST(PrecisionKernelTest, AdversarialCsrWithEmptyRows) {
  // 6×5 rectangular CSR with empty rows 1, 3, 5 and repeated/boundary
  // columns in row 4.
  la::CsrMatrixF a(
      6, 5, /*row_offsets=*/{0, 2, 2, 3, 3, 6, 6},
      /*col_indices=*/{1, 3, 0, 0, 2, 4},
      /*values=*/{0.5f, 0.25f, 1.0f, 0.125f, -0.75f, 2.0f});

  const std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  std::vector<float> y;
  a.SpMvTranspose(x, y);
  // Hand-computed scatters (exact in fp32); empty rows contribute nothing.
  ExpectBitwiseEq(y, {3.0f + 0.625f, 0.5f, -3.75f, 0.25f, 10.0f},
                  "hand-computed");

  CheckPrecisionKernels(a, 11, "empty-rows");
}

TEST(PrecisionKernelTest, SingleRowMatrix) {
  la::CsrMatrixF a(1, 4, {0, 3}, {0, 1, 3}, {0.25f, 0.5f, 0.125f});
  CheckPrecisionKernels(a, 17, "single-row");
}

TEST(PrecisionKernelTest, AllRowsEmpty) {
  la::CsrMatrixF a(4, 3, {0, 0, 0, 0, 0}, {}, {});
  CheckPrecisionKernels(a, 23, "all-empty");
  std::vector<float> y(3, 99.0f);  // must be overwritten to exact zeros
  a.SpMvTranspose({1.0f, 2.0f, 3.0f, 4.0f}, y);
  ExpectBitwiseEq(y, {0.0f, 0.0f, 0.0f}, "all-empty overwrite");
}

TEST(PrecisionKernelTest, DanglingNodesOnFp32Graph) {
  // kKeep dangling nodes → genuinely empty CSR rows, materialized at fp32.
  GraphBuilder builder(5);
  builder.AddEdges({{0, 1}, {0, 2}, {1, 2}, {1, 4}, {3, 0}, {3, 4}});
  BuildOptions build_options;
  build_options.dangling_policy = DanglingPolicy::kKeep;
  build_options.value_precision = la::Precision::kFloat32;
  auto graph = builder.Build(build_options);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->value_precision(), la::Precision::kFloat32);
  ASSERT_GT(graph->CountDangling(), 0u);

  CheckPrecisionKernels(graph->TransitionF(), 31, "dangling out-CSR");
}

class PrecisionGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrecisionGraphTest, RandomGraphKernelsMatchReference) {
  RmatOptions options;
  options.scale = 9;
  options.edges = 6000;
  options.seed = GetParam();
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());
  Graph graph32 = RematerializeWithPrecision(*graph, la::Precision::kFloat32);

  CheckPrecisionKernels(graph32.TransitionF(), GetParam() + 3, "rmat out-CSR");
}

TEST_P(PrecisionGraphTest, TiersAgreeNumerically) {
  // The same scatter at both tiers: the fp32 result must track fp64 to
  // fp32 rounding accuracy (per-destination error O(indegree · eps_f32)).
  RmatOptions options;
  options.scale = 8;
  options.edges = 3000;
  options.seed = GetParam();
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());
  Graph graph32 = RematerializeWithPrecision(*graph, la::Precision::kFloat32);

  std::vector<double> x64(graph->num_nodes());
  std::vector<float> x32(graph->num_nodes());
  Rng rng(GetParam());
  for (size_t i = 0; i < x64.size(); ++i) {
    x32[i] = static_cast<float>(rng.NextDouble() - 0.5);
    x64[i] = static_cast<double>(x32[i]);  // identical starting values
  }
  std::vector<double> y64;
  graph->MultiplyTranspose(x64, y64);
  std::vector<float> y32;
  graph32.MultiplyTransposeT<float>(x32, y32);
  ASSERT_EQ(y32.size(), y64.size());
  for (size_t i = 0; i < y64.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(y32[i]), y64[i], 1e-5) << "node " << i;
  }
}

TEST(PrecisionGraphTest, Fp32MaterializationHalvesValueBytes) {
  RmatOptions options;
  options.scale = 8;
  options.edges = 3000;
  options.seed = 5;
  auto graph64 = GenerateRmat(options);
  ASSERT_TRUE(graph64.ok());
  Graph graph32 =
      RematerializeWithPrecision(*graph64, la::Precision::kFloat32);

  // Structure parity: same degrees and neighbor lists at either tier.
  ASSERT_EQ(graph32.num_nodes(), graph64->num_nodes());
  ASSERT_EQ(graph32.num_edges(), graph64->num_edges());
  for (NodeId u = 0; u < graph64->num_nodes(); ++u) {
    ASSERT_EQ(graph32.OutDegree(u), graph64->OutDegree(u));
    ASSERT_EQ(graph32.InDegree(u), graph64->InDegree(u));
    const auto n32 = graph32.OutNeighbors(u);
    const auto n64 = graph64->OutNeighbors(u);
    ASSERT_TRUE(std::equal(n32.begin(), n32.end(), n64.begin(), n64.end()));
  }

  // Value bytes: the out-CSR drops exactly 4 bytes per stored edge
  // (double → float).
  const size_t nnz = graph64->num_edges();
  EXPECT_EQ(graph64->SizeBytes() - graph32.SizeBytes(), nnz * 4);

  // Edge weights agree to fp32 rounding.
  const auto v64 = graph64->Transition().RowValues(0);
  const auto v32 = graph32.TransitionF().RowValues(0);
  ASSERT_EQ(v64.size(), v32.size());
  for (size_t e = 0; e < v64.size(); ++e) {
    EXPECT_EQ(v32[e], static_cast<float>(v64[e]));
  }

  // Round-trip back to fp64 restores the exact fp64 weights (1/outdeg is a
  // deterministic function of the structure).
  Graph back = RematerializeWithPrecision(graph32, la::Precision::kFloat64);
  const auto vb = back.Transition().RowValues(0);
  ASSERT_EQ(vb.size(), v64.size());
  for (size_t e = 0; e < v64.size(); ++e) EXPECT_EQ(vb[e], v64[e]);
}

TEST(PrecisionBlockTest, DenseBlockFAndConversions) {
  la::DenseBlockF block(4, 3);
  EXPECT_EQ(block.SizeBytes(), 4 * 3 * sizeof(float));
  block.At(2, 1) = 0.5f;
  la::DenseBlock wide;
  la::ConvertBlock(block, wide);
  EXPECT_EQ(wide.rows(), 4u);
  EXPECT_EQ(wide.num_vectors(), 3u);
  EXPECT_EQ(wide.At(2, 1), 0.5);
  EXPECT_EQ(wide.At(0, 0), 0.0);

  const std::vector<float> narrow =
      la::ConvertVector<float>(std::vector<double>{1.0, 0.25, -2.0});
  EXPECT_EQ(narrow, (std::vector<float>{1.0f, 0.25f, -2.0f}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrecisionGraphTest,
                         ::testing::Values(1u, 7u, 42u));

}  // namespace
}  // namespace tpa

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/dense_block.h"
#include "util/check.h"
#include "util/random.h"

namespace tpa {
namespace {

Graph TestGraph(uint64_t seed) {
  RmatOptions options;
  options.scale = 9;
  options.edges = 6000;
  options.seed = seed;
  auto graph = GenerateRmat(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

void ExpectBitwiseEq(const std::vector<double>& got,
                     const std::vector<double>& expected,
                     const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << label << " entry " << i;
  }
}

void ExpectBlockBitwiseEq(const la::DenseBlock& got,
                          const la::DenseBlock& expected,
                          const std::string& label) {
  ASSERT_EQ(got.rows(), expected.rows()) << label;
  ASSERT_EQ(got.num_vectors(), expected.num_vectors()) << label;
  for (size_t b = 0; b < expected.num_vectors(); ++b) {
    ExpectBitwiseEq(got.ExtractVector(b), expected.ExtractVector(b),
                    label + " vector " + std::to_string(b));
  }
}

/// Sparse x with `support_size` deterministic nonzero entries; returns the
/// sorted support.
std::vector<uint32_t> FillSparse(std::vector<double>& x, size_t support_size,
                                 uint64_t seed) {
  Rng rng(seed);
  std::fill(x.begin(), x.end(), 0.0);
  std::vector<uint32_t> support;
  while (support.size() < support_size) {
    const auto i = static_cast<uint32_t>(rng.NextUint64() % x.size());
    if (x[i] == 0.0) {
      x[i] = rng.NextDouble() + 0.1;
      support.push_back(i);
    }
  }
  std::sort(support.begin(), support.end());
  return support;
}

class FrontierKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrontierKernelTest, SpMvMatchesDenseBitwise) {
  Graph graph = TestGraph(GetParam());
  const la::CsrMatrix& csr = graph.Transition();
  const uint32_t n = csr.rows();

  for (size_t support_size : {size_t{1}, size_t{5}, size_t{64}}) {
    std::vector<double> x(n);
    const std::vector<uint32_t> frontier =
        FillSparse(x, support_size, GetParam() + support_size);

    std::vector<double> dense;
    csr.SpMvTranspose(x, dense);

    std::vector<double> sparse(n, 0.0);
    std::vector<uint32_t> next_frontier;
    la::FrontierScratch scratch;
    ASSERT_TRUE(csr.SpMvTransposeFrontier(x, frontier, 1.0, sparse,
                                          next_frontier, scratch));
    ExpectBitwiseEq(sparse, dense,
                    "support " + std::to_string(support_size));

    // The emitted frontier is sorted, unique, and a superset of the
    // nonzero destinations.
    ASSERT_TRUE(std::is_sorted(next_frontier.begin(), next_frontier.end()));
    ASSERT_EQ(std::adjacent_find(next_frontier.begin(), next_frontier.end()),
              next_frontier.end());
    for (uint32_t i = 0; i < n; ++i) {
      if (dense[i] != 0.0) {
        ASSERT_TRUE(std::binary_search(next_frontier.begin(),
                                       next_frontier.end(), i))
            << "nonzero destination " << i << " missing from frontier";
      }
    }
  }
}

TEST_P(FrontierKernelTest, FrontierMayListZeroRows) {
  // A frontier is a *superset* of the support: rows with x == 0 contribute
  // nothing, exactly like the dense kernel's zero-source skip.
  Graph graph = TestGraph(GetParam());
  const la::CsrMatrix& csr = graph.Transition();
  const uint32_t n = csr.rows();

  std::vector<double> x(n);
  std::vector<uint32_t> frontier = FillSparse(x, 8, GetParam());
  for (uint32_t pad : {0u, n / 2, n - 1}) frontier.push_back(pad);
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());

  std::vector<double> dense;
  csr.SpMvTranspose(x, dense);
  std::vector<double> sparse(n, 0.0);
  std::vector<uint32_t> next_frontier;
  la::FrontierScratch scratch;
  ASSERT_TRUE(csr.SpMvTransposeFrontier(x, frontier, 1.0, sparse,
                                        next_frontier, scratch));
  ExpectBitwiseEq(sparse, dense, "padded frontier");
}

TEST_P(FrontierKernelTest, DenseFallthroughAboveThreshold) {
  Graph graph = TestGraph(GetParam());
  const la::CsrMatrix& csr = graph.Transition();
  const uint32_t n = csr.rows();

  std::vector<double> x(n);
  const std::vector<uint32_t> frontier = FillSparse(x, 32, GetParam());

  std::vector<double> dense;
  csr.SpMvTranspose(x, dense);

  // Threshold 0 forces the fallthrough regardless of frontier size; the
  // buffer need not be pre-zeroed because the dense kernel zeroes it.
  std::vector<double> fell(n, 123.0);
  std::vector<uint32_t> next_frontier = {7};
  la::FrontierScratch scratch;
  EXPECT_FALSE(csr.SpMvTransposeFrontier(x, frontier, 0.0, fell,
                                         next_frontier, scratch));
  ExpectBitwiseEq(fell, dense, "fallthrough");
  EXPECT_TRUE(next_frontier.empty());
}

TEST_P(FrontierKernelTest, SpMmMatchesDenseBitwiseAcrossWidths) {
  Graph graph = TestGraph(GetParam());
  const la::CsrMatrix& csr = graph.Transition();
  const uint32_t n = csr.rows();
  Rng rng(GetParam());

  // Widths through the specialized range plus one generic (> 16).
  for (size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{8},
                       size_t{16}, size_t{17}}) {
    la::DenseBlock x(n, width);
    std::vector<uint32_t> frontier;
    for (size_t b = 0; b < width; ++b) {
      // Distinct small supports per vector; the union is the frontier.
      for (int k = 0; k < 4; ++k) {
        const auto i = static_cast<uint32_t>(rng.NextUint64() % n);
        x.At(i, b) = rng.NextDouble() + 0.1;
        frontier.push_back(i);
      }
    }
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());

    la::DenseBlock dense;
    csr.SpMmTranspose(x, dense);

    la::DenseBlock sparse(n, width);
    std::vector<uint32_t> next_frontier;
    la::FrontierScratch scratch;
    ASSERT_TRUE(csr.SpMmTransposeFrontier(x, frontier, 1.0, sparse,
                                          next_frontier, scratch));
    ExpectBlockBitwiseEq(sparse, dense, "width " + std::to_string(width));
    ASSERT_TRUE(std::is_sorted(next_frontier.begin(), next_frontier.end()));

    la::DenseBlock fell;
    std::vector<uint32_t> ignored;
    EXPECT_FALSE(csr.SpMmTransposeFrontier(x, frontier, 0.0, fell, ignored,
                                           scratch));
    ExpectBlockBitwiseEq(fell, dense,
                         "fallthrough width " + std::to_string(width));
  }
}

TEST_P(FrontierKernelTest, RecycledBufferChainMatchesDense) {
  // The CPI usage pattern: propagate a chain of frontier scatters, clearing
  // only the previously-emitted frontier of the recycled buffer between
  // iterations, and compare every interim vector against the dense chain.
  Graph graph = TestGraph(GetParam());
  const la::CsrMatrix& csr = graph.Transition();
  const uint32_t n = csr.rows();

  std::vector<double> x(n, 0.0);
  x[GetParam() % n] = 1.0;
  std::vector<uint32_t> frontier = {static_cast<uint32_t>(GetParam() % n)};
  std::vector<double> next(n, 0.0);
  std::vector<uint32_t> next_frontier;
  la::FrontierScratch scratch;

  std::vector<double> dense_x = x;
  std::vector<double> dense_next;

  for (int iter = 0; iter < 4; ++iter) {
    for (uint32_t j : next_frontier) next[j] = 0.0;
    ASSERT_TRUE(csr.SpMvTransposeFrontier(x, frontier, 1.0, next,
                                          next_frontier, scratch));
    x.swap(next);
    frontier.swap(next_frontier);

    csr.SpMvTranspose(dense_x, dense_next);
    dense_x.swap(dense_next);

    ExpectBitwiseEq(x, dense_x, "iteration " + std::to_string(iter));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierKernelTest,
                         ::testing::Values(1u, 7u, 42u));

}  // namespace
}  // namespace tpa

#include "la/dense_block.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/vector_ops.h"
#include "util/check.h"
#include "util/random.h"

namespace tpa {
namespace {

TEST(DenseBlockTest, ShapeAndAccessors) {
  la::DenseBlock block(4, 3);
  EXPECT_EQ(block.rows(), 4u);
  EXPECT_EQ(block.num_vectors(), 3u);
  EXPECT_EQ(block.SizeBytes(), 12 * sizeof(double));
  for (size_t r = 0; r < 4; ++r) {
    for (size_t b = 0; b < 3; ++b) EXPECT_EQ(block.At(r, b), 0.0);
  }
  block.At(2, 1) = 7.5;
  EXPECT_EQ(block.At(2, 1), 7.5);
  // The B entries of one block row are contiguous.
  EXPECT_EQ(block.RowPtr(2)[1], 7.5);
}

TEST(DenseBlockTest, StorageStaysCacheLineAligned) {
  // Every block row of width 8 (fp64) or 16 (fp32) must be one 64-byte
  // line, through construction, growth and reshaping alike.
  la::DenseBlock block;
  la::DenseBlockF block_f;
  for (size_t rows : {size_t{1}, size_t{3}, size_t{1000}, size_t{131072}}) {
    for (size_t width : {size_t{1}, size_t{3}, size_t{8}, size_t{16}}) {
      block.Resize(rows, width);
      block_f.Resize(rows, width);
      block.SetZero();
      block.At(rows - 1, width - 1) = 2.5;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(block.RowPtr(0)) % 64, 0u)
          << rows << " x " << width;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(block_f.RowPtr(0)) % 64, 0u)
          << rows << " x " << width;
      la::DenseBlock copy = block;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(copy.RowPtr(0)) % 64, 0u);
      EXPECT_EQ(copy.At(rows - 1, width - 1), 2.5);
    }
  }
}

TEST(DenseBlockTest, VectorRoundTrip) {
  la::DenseBlock block(3, 2);
  const std::vector<double> v0 = {1.0, 2.0, 3.0};
  const std::vector<double> v1 = {-4.0, 0.0, 5.5};
  block.SetVector(0, v0);
  block.SetVector(1, v1);
  EXPECT_EQ(block.ExtractVector(0), v0);
  EXPECT_EQ(block.ExtractVector(1), v1);
  block.SetZero();
  EXPECT_EQ(block.ExtractVector(1), std::vector<double>(3, 0.0));
}

TEST(DenseBlockTest, SwapExchangesContents) {
  la::DenseBlock a(2, 1);
  la::DenseBlock b(3, 2);
  a.At(0, 0) = 1.0;
  b.At(2, 1) = 2.0;
  a.swap(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.At(2, 1), 2.0);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.At(0, 0), 1.0);
}

la::DenseBlock RandomBlock(size_t rows, size_t num_vectors, uint64_t seed) {
  la::DenseBlock block(rows, num_vectors);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t b = 0; b < num_vectors; ++b) {
      block.At(r, b) = rng.NextDouble();
    }
  }
  return block;
}

/// The kernel contract of the batched execution path: vector b of an SpMM
/// result is bitwise-identical to SpMvTranspose on vector b alone.
class SpMmPinTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpMmPinTest, SpMmTransposeMatchesIndependentSpMvTransposeBitwise) {
  RmatOptions options;
  options.scale = 8;
  options.edges = 3000;
  options.seed = 23;
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());
  const la::CsrMatrix& m = graph->Transition();

  const size_t num_vectors = GetParam();
  la::DenseBlock x = RandomBlock(m.rows(), num_vectors, 9 + num_vectors);
  // Sparsify some block rows entirely and some entries per vector, so both
  // the all-zero row skip and the mixed zero/nonzero case are exercised.
  for (size_t r = 0; r < x.rows(); r += 3) {
    for (size_t b = 0; b < num_vectors; ++b) x.At(r, b) = 0.0;
  }
  for (size_t r = 1; r < x.rows(); r += 5) x.At(r, 0) = 0.0;

  la::DenseBlock y;
  m.SpMmTranspose(x, y);
  ASSERT_EQ(y.rows(), m.cols());
  ASSERT_EQ(y.num_vectors(), num_vectors);

  for (size_t b = 0; b < num_vectors; ++b) {
    std::vector<double> expected;
    m.SpMvTranspose(x.ExtractVector(b), expected);
    const std::vector<double> got = y.ExtractVector(b);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(got[r], expected[r]) << "vector " << b << " row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, SpMmPinTest,
                         ::testing::Values(1u, 2u, 8u, 17u));

TEST(SpMmTest, SmallMatrixKnownValues) {
  // [ 0  2  0 ]
  // [ 1  0  3 ]
  // [ 0  0  0 ]
  la::CsrMatrix m(3, 3, {0, 1, 3, 3}, {1, 0, 2}, {2.0, 1.0, 3.0});
  la::DenseBlock x(3, 2);
  x.SetVector(0, {1.0, 2.0, 3.0});
  x.SetVector(1, {0.5, 1.0, -1.0});

  la::DenseBlock yt;
  m.SpMmTranspose(x, yt);
  EXPECT_EQ(yt.ExtractVector(0), (std::vector<double>{2.0, 2.0, 6.0}));
  EXPECT_EQ(yt.ExtractVector(1), (std::vector<double>{1.0, 1.0, 3.0}));
}

TEST(BlockVectorOpsTest, MatchScalarOpsBitwise) {
  const size_t rows = 200;
  const size_t num_vectors = 5;
  la::DenseBlock y = RandomBlock(rows, num_vectors, 4);

  std::vector<std::vector<double>> ys(num_vectors);
  for (size_t b = 0; b < num_vectors; ++b) ys[b] = y.ExtractVector(b);

  la::BlockScale(1.25, y);
  Rng rng(6);
  std::vector<double> shared(rows);
  for (double& v : shared) v = rng.NextDouble();
  la::BlockAddVector(-0.5, shared, y);

  for (size_t b = 0; b < num_vectors; ++b) {
    la::Scale(1.25, ys[b]);
    la::Axpy(-0.5, shared, ys[b]);
    const std::vector<double> got = y.ExtractVector(b);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(got[r], ys[b][r]) << "vector " << b << " row " << r;
    }
  }
}

}  // namespace
}  // namespace tpa

/// Accuracy-envelope and bitwise-consistency coverage of the fp32
/// propagation tier in core: Cpi at fp32 (scalar, batch, windowed) against
/// its own scalar pins and against the fp64 tier, and fp32 TPA end to end
/// against the fp64 ground-truth oracle — the fp32 rounding must disappear
/// inside the approximation envelope the method already guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/cpi.h"
#include "core/tpa.h"
#include "eval/metrics.h"
#include "eval/oracle.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "la/precision.h"
#include "la/vector_ops.h"
#include "method/power_iteration.h"
#include "method/tpa_method.h"
#include "util/check.h"

namespace tpa {
namespace {

/// One community-structured graph at both tiers (identical structure).
struct TierPair {
  Graph fp64;
  Graph fp32;
};

TierPair MakeTierPair(uint64_t seed = 7) {
  DcsbmOptions options;
  options.nodes = 600;
  options.edges = 6000;
  options.blocks = 12;
  options.seed = seed;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  Graph fp32 = RematerializeWithPrecision(*graph, la::Precision::kFloat32);
  return {std::move(graph).value(), std::move(fp32)};
}

TEST(CpiPrecisionTest, Fp32BatchMatchesFp32ScalarBitwise) {
  const TierPair graphs = MakeTierPair();
  const std::vector<NodeId> seeds = {3, 141, 7, 399, 27, 555, 0, 88};

  for (double threshold : {0.0, 0.125, 1.0}) {
    CpiOptions options;
    options.tolerance = 1e-8;
    options.frontier_density_threshold = threshold;
    auto batch = Cpi::RunBatchT<float>(graphs.fp32, seeds, options);
    ASSERT_TRUE(batch.ok());
    for (size_t b = 0; b < seeds.size(); ++b) {
      auto scalar = Cpi::RunT<float>(graphs.fp32, {seeds[b]}, options);
      ASSERT_TRUE(scalar.ok());
      const std::vector<float> column = batch->ExtractVector(b);
      ASSERT_EQ(column.size(), scalar->scores.size());
      for (size_t i = 0; i < column.size(); ++i) {
        ASSERT_EQ(column[i], scalar->scores[i])
            << "threshold " << threshold << " seed " << seeds[b] << " node "
            << i;
      }
    }
  }
}

TEST(CpiPrecisionTest, Fp32TracksFp64WithinRoundingScale) {
  // The fp32 run solves the same fixed point; its whole-vector L1 distance
  // from the fp64 run must sit at fp32-rounding scale — orders of magnitude
  // below any approximation bound the methods use.
  const TierPair graphs = MakeTierPair(13);
  CpiOptions options;
  options.tolerance = 1e-8;
  for (NodeId seed : {NodeId{0}, NodeId{42}, NodeId{599}}) {
    auto r64 = Cpi::Run(graphs.fp64, {seed}, options);
    auto r32 = Cpi::RunT<float>(graphs.fp32, {seed}, options);
    ASSERT_TRUE(r64.ok());
    ASSERT_TRUE(r32.ok());
    EXPECT_LE(la::L1Distance(r32->scores, r64->scores), 1e-4) << seed;
    EXPECT_TRUE(r32->converged);
  }
}

TEST(CpiPrecisionTest, Fp32WindowedPartsSumToFullRun) {
  const TierPair graphs = MakeTierPair(17);
  std::vector<float> q(graphs.fp32.num_nodes(), 0.0f);
  q[9] = 1.0f;
  CpiOptions options;
  options.tolerance = 1e-8;
  auto windows = Cpi::RunWindowedT<float>(graphs.fp32, q, {0, 5, 10}, options);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 3u);

  auto full = Cpi::RunT<float>(graphs.fp32, {9}, options);
  ASSERT_TRUE(full.ok());
  std::vector<double> sum(graphs.fp32.num_nodes(), 0.0);
  for (const std::vector<float>& window : *windows) {
    for (size_t i = 0; i < window.size(); ++i) {
      sum[i] += static_cast<double>(window[i]);
    }
  }
  // The windows were accumulated in fp32, so their sum differs from the
  // single-accumulator run only by rounding.
  EXPECT_LE(la::L1Distance(full->scores, sum), 1e-4);
}

TEST(TpaPrecisionTest, Fp32TpaStaysInsideTheApproximationEnvelope) {
  // The acceptance pin: fp32 TPA's end-to-end L1 error against the fp64
  // ground-truth oracle must stay within the method's existing theoretical
  // envelope (Theorem 2's 2(1-c)^S), and within a whisker of the fp64
  // TPA's own error — fp32 rounding must not consume the budget.
  const TierPair graphs = MakeTierPair(19);
  TpaOptions options;
  options.family_window = 5;
  options.stranger_start = 10;

  auto tpa64 = Tpa::Preprocess(graphs.fp64, options);
  auto tpa32 = Tpa::Preprocess(graphs.fp32, options);
  ASSERT_TRUE(tpa64.ok());
  ASSERT_TRUE(tpa32.ok());
  EXPECT_EQ(tpa32->precision(), la::Precision::kFloat32);
  // The preprocessed tail is one fp32 value per node — half the fp64 tier.
  EXPECT_EQ(tpa32->PreprocessedBytes() * 2, tpa64->PreprocessedBytes());

  GroundTruthOracle oracle(graphs.fp64);
  const double bound =
      TotalErrorBound(options.restart_probability, options.family_window);
  for (NodeId seed : {NodeId{1}, NodeId{250}, NodeId{599}}) {
    auto exact = oracle.Exact(seed);
    ASSERT_TRUE(exact.ok());
    const std::vector<double> r64 = tpa64->Query(seed);
    const std::vector<float> r32 = tpa32->QueryF(seed);
    const double e64 = la::L1Distance(r64, *exact);
    const double e32 = la::L1Distance(r32, *exact);
    EXPECT_LE(e32, bound) << "seed " << seed;
    // fp32 rounding adds error at ~1e-6 L1 scale; the approximation error
    // itself is ~1e-1.  Pin the gap three orders below the envelope.
    EXPECT_NEAR(e32, e64, bound * 1e-3) << "seed " << seed;
  }
}

TEST(TpaPrecisionTest, Fp32QuerySurfacesAreConsistent) {
  const TierPair graphs = MakeTierPair(23);
  auto tpa = Tpa::Preprocess(graphs.fp32, {});
  ASSERT_TRUE(tpa.ok());

  const NodeId seed = 123;
  const std::vector<float> native = tpa->QueryF(seed);
  const std::vector<double> widened = tpa->Query(seed);
  ASSERT_EQ(native.size(), widened.size());
  for (size_t i = 0; i < native.size(); ++i) {
    // Query on an fp32 Tpa is exactly the widened fp32 result.
    ASSERT_EQ(widened[i], static_cast<double>(native[i])) << i;
  }

  const std::vector<NodeId> seeds = {123, 4, 577};
  auto batch = tpa->QueryBatchF(seeds);
  ASSERT_TRUE(batch.ok());
  for (size_t b = 0; b < seeds.size(); ++b) {
    const std::vector<float> column = batch->ExtractVector(b);
    const std::vector<float> scalar = tpa->QueryF(seeds[b]);
    ASSERT_EQ(column.size(), scalar.size());
    for (size_t i = 0; i < column.size(); ++i) {
      ASSERT_EQ(column[i], scalar[i]) << "seed " << seeds[b] << " node " << i;
    }
  }

  // The decomposition widens the same fp32 parts.
  const Tpa::QueryParts parts = tpa->QueryDecomposed(seed);
  EXPECT_LE(la::L1Distance(parts.total, widened), 1e-5);
}

TEST(MethodPrecisionTest, PowerIterationFp32MatchesOracleClosely) {
  // Exact CPI at fp32 has no approximation error — only rounding.  Against
  // the fp64 oracle the L1 gap must sit at fp32 scale.
  const TierPair graphs = MakeTierPair(29);
  PowerIterationRwr method{[] {
    CpiOptions options;
    options.tolerance = 1e-8;
    return options;
  }()};
  MemoryBudget unlimited;
  ASSERT_TRUE(method.Preprocess(graphs.fp32, unlimited).ok());

  GroundTruthOracle oracle(graphs.fp64);
  auto exact = oracle.Exact(77);
  ASSERT_TRUE(exact.ok());
  auto scores = method.QueryF32(77);
  ASSERT_TRUE(scores.ok());
  // CPI truncation at 1e-8 plus fp32 rounding.
  EXPECT_LE(la::L1Distance(*scores, *exact), 1e-4);

  // The fp64-typed Query on an fp32 graph is the widened fp32 result.
  auto widened = method.Query(77);
  ASSERT_TRUE(widened.ok());
  ASSERT_EQ(widened->size(), scores->size());
  for (size_t i = 0; i < scores->size(); ++i) {
    ASSERT_EQ((*widened)[i], static_cast<double>((*scores)[i])) << i;
  }
}

}  // namespace
}  // namespace tpa

/// Value-free CSR coverage: every kernel of CsrMatrixT, run on a value-free
/// matrix (kRowConstant synthesized, and kRowConstant with a per-row scale
/// array) and pinned bitwise against its explicit twin —
/// the same structure with the same numbers materialized per edge — across
/// adversarial CSRs (empty rows, dangling kKeep graphs, boundary columns)
/// and block widths 1–17.  Plus the dual-tier shared-structure Graph
/// round-trip: EnsureTier / RematerializeWithPrecision aliasing one
/// topology, and SizeBytes accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/dense_block.h"
#include "util/random.h"

namespace tpa {
namespace {

template <typename V>
std::vector<V> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<V> x(n);
  for (V& v : x) v = static_cast<V>(rng.NextDouble() - 0.5);
  return x;
}

template <typename V>
void ExpectBitwiseEq(const std::vector<V>& got, const std::vector<V>& expected,
                     const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << label << " entry " << i;
  }
}

template <typename V>
void ExpectBitwiseEq(const la::DenseBlockT<V>& got,
                     const la::DenseBlockT<V>& expected,
                     const std::string& label) {
  ASSERT_EQ(got.rows(), expected.rows()) << label;
  ASSERT_EQ(got.num_vectors(), expected.num_vectors()) << label;
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t b = 0; b < expected.num_vectors(); ++b) {
      ASSERT_EQ(got.At(r, b), expected.At(r, b))
          << label << " row " << r << " vector " << b;
    }
  }
}

/// The explicit twin of a value-free matrix: same shared structure, the
/// per-edge value array filled with exactly the numbers the value-free
/// kernels synthesize (EdgeWeight is the mode-agnostic oracle).  Bitwise
/// agreement between the twin and the original is the tentpole contract.
template <typename V>
la::CsrMatrixT<V> ExplicitTwin(const la::CsrMatrixT<V>& a) {
  std::vector<V> values(a.nnz());
  const std::span<const uint64_t> offsets = a.structure().row_offsets.span();
  for (uint32_t r = 0; r < a.rows(); ++r) {
    for (uint64_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      values[e] = a.EdgeWeight(r, e);
    }
  }
  return la::CsrMatrixT<V>(a.structure(), std::move(values));
}

/// Runs the full kernel family on `vf` and its explicit twin and asserts
/// bitwise-identical outputs: SpMvTranspose, SpMmTranspose at specialized
/// and generic widths, and the frontier head.
template <typename V>
void CheckValueFreeBitwise(const la::CsrMatrixT<V>& vf, uint64_t seed,
                           const std::string& label) {
  ASSERT_NE(vf.value_mode(), la::CsrValueMode::kExplicit) << label;
  const la::CsrMatrixT<V> ex = ExplicitTwin(vf);
  // The twin aliases the structure rather than copying it.
  ASSERT_EQ(ex.structure().col_indices.data(),
            vf.structure().col_indices.data());

  const std::vector<V> x_rows = RandomVector<V>(vf.rows(), seed + 1);

  std::vector<V> y_vf, y_ex;
  vf.SpMvTranspose(x_rows, y_vf);
  ex.SpMvTranspose(x_rows, y_ex);
  ExpectBitwiseEq(y_vf, y_ex, label + " SpMvTranspose");

  for (size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8},
                       size_t{16}, size_t{17}}) {
    const std::string wlabel = label + " width " + std::to_string(width);
    la::DenseBlockT<V> bx_rows(vf.rows(), width);
    for (size_t b = 0; b < width; ++b) {
      bx_rows.SetVector(b, RandomVector<V>(vf.rows(), seed + 101 * (b + 1)));
    }
    la::DenseBlockT<V> by_vf, by_ex;
    vf.SpMmTranspose(bx_rows, by_vf);
    ex.SpMmTranspose(bx_rows, by_ex);
    ExpectBitwiseEq(by_vf, by_ex, wlabel + " SpMmTranspose");
  }

  // Frontier scatter at width 1 (the single-seed CPI head): a sparse x
  // supported on a few rows, full pipeline, pinned against SpMvTranspose.
  {
    std::vector<V> sparse(vf.rows(), V{0});
    std::vector<uint32_t> frontier;
    for (uint32_t r = 0; r < vf.rows(); r += 2) {
      sparse[r] = static_cast<V>(0.25 + 0.125 * r);
      frontier.push_back(r);
    }
    la::DenseBlockT<V> sx(vf.rows(), 1);
    sx.SetVector(0, sparse);
    la::FrontierScratch scratch_vf, scratch_ex;
    la::DenseBlockT<V> sy_vf(vf.cols(), 1), sy_ex(vf.cols(), 1);
    std::vector<uint32_t> next_vf, next_ex;
    const bool sparse_vf = vf.SpMmTransposeFrontier(sx, frontier, 1.5, sy_vf,
                                                    next_vf, scratch_vf);
    const bool sparse_ex = ex.SpMmTransposeFrontier(sx, frontier, 1.5, sy_ex,
                                                    next_ex, scratch_ex);
    ASSERT_EQ(sparse_vf, sparse_ex) << label;
    ExpectBitwiseEq(sy_vf, sy_ex, label + " SpMmTransposeFrontier width 1");
    EXPECT_EQ(next_vf, next_ex) << label;
    std::vector<V> dense;
    ex.SpMvTranspose(sparse, dense);
    ExpectBitwiseEq(sy_vf.ExtractVector(0), dense,
                    label + " SpMmTransposeFrontier width 1 vs SpMvTranspose");
  }
}

/// The adversarial structure every mode is exercised on: 6×6 with empty
/// rows 1, 3, 5, a full row, and boundary columns.
la::CsrStructure AdversarialStructure() {
  return la::MakeCsrStructure(6, 6, {0, 2, 2, 3, 3, 7, 7},
                              {1, 3, 0, 0, 2, 4, 5});
}

TEST(ValueFreeKernelTest, SynthesizedRowConstantMatchesExplicit) {
  la::CsrMatrix a(AdversarialStructure(), la::CsrValueMode::kRowConstant);
  EXPECT_EQ(a.value_mode(), la::CsrValueMode::kRowConstant);
  // Synthesized weight is 1/row-nnz, rounded once from fp64.
  EXPECT_EQ(a.EdgeWeight(0, 0), 0.5);
  EXPECT_EQ(a.EdgeWeight(4, 3), 0.25);
  CheckValueFreeBitwise(a, 3, "synth fp64");

  la::CsrMatrixF af(AdversarialStructure(), la::CsrValueMode::kRowConstant);
  EXPECT_EQ(af.EdgeWeight(4, 3), 0.25f);
  CheckValueFreeBitwise(af, 5, "synth fp32");
}

TEST(ValueFreeKernelTest, PerRowScaleArrayMatchesExplicit) {
  const std::vector<double> scales = {0.5, 9.0, -1.25, 9.0, 0.125, 9.0};
  la::CsrMatrix a(AdversarialStructure(), la::CsrValueMode::kRowConstant,
                  scales);
  EXPECT_EQ(a.EdgeWeight(2, 2), -1.25);
  CheckValueFreeBitwise(a, 7, "row-scale fp64");

  const std::vector<float> scales_f(scales.begin(), scales.end());
  la::CsrMatrixF af(AdversarialStructure(), la::CsrValueMode::kRowConstant,
                    scales_f);
  CheckValueFreeBitwise(af, 9, "row-scale fp32");
}

TEST(ValueFreeKernelTest, AllRowsEmpty) {
  la::CsrMatrix a(4, 4, {0, 0, 0, 0, 0}, {}, la::CsrValueMode::kRowConstant);
  CheckValueFreeBitwise(a, 17, "all-empty");
  std::vector<double> y(4, 99.0);
  a.SpMvTranspose({1.0, 2.0, 3.0, 4.0}, y);
  ExpectBitwiseEq(y, {0.0, 0.0, 0.0, 0.0}, "all-empty overwrite");
}

TEST(ValueFreeKernelTest, RandomGraphAllModes) {
  RmatOptions options;
  options.scale = 9;
  options.edges = 6000;
  options.seed = 42;
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());
  const la::CsrStructure& out = graph->Transition().structure();

  CheckValueFreeBitwise(la::CsrMatrix(out, la::CsrValueMode::kRowConstant),
                        21, "rmat out synth");
  std::vector<double> row_scales(out.rows);
  Rng rng(99);
  for (double& s : row_scales) s = rng.NextDouble() + 0.25;
  CheckValueFreeBitwise(
      la::CsrMatrix(out, la::CsrValueMode::kRowConstant, row_scales), 23,
      "rmat out row-scale");
}

TEST(ValueFreeKernelTest, RowValuesChecksOnValueFreeMatrices) {
  la::CsrMatrix a(AdversarialStructure(), la::CsrValueMode::kRowConstant);
  EXPECT_DEATH(a.RowValues(0), "kExplicit");
}

TEST(ValueFreeKernelTest, SizeBytesAccounting) {
  const la::CsrStructure s = AdversarialStructure();
  const size_t structure_bytes = la::CsrStructureBytes(s);
  EXPECT_EQ(structure_bytes, 7 * sizeof(uint64_t) + 7 * sizeof(uint32_t));

  la::CsrMatrix synth(s, la::CsrValueMode::kRowConstant);
  EXPECT_EQ(synth.ValueBytes(), 0u);
  EXPECT_EQ(synth.SizeBytes(), structure_bytes);

  la::CsrMatrix row_scaled(s, la::CsrValueMode::kRowConstant,
                           std::vector<double>(6, 0.5));
  EXPECT_EQ(row_scaled.ValueBytes(), 6 * sizeof(double));

  la::CsrMatrix ex = ExplicitTwin(synth);
  EXPECT_EQ(ex.ValueBytes(), s.nnz() * sizeof(double));
  EXPECT_EQ(ex.SizeBytes(), structure_bytes + s.nnz() * sizeof(double));
  EXPECT_EQ(ex.StructureBytes(), synth.StructureBytes());
}

// ---------------------------------------------------------------------------
// Graph level: value-free storage end to end and the dual-tier round-trip.
// ---------------------------------------------------------------------------

StatusOr<Graph> BuildTestGraph(ValueStorage storage, la::Precision precision,
                               DanglingPolicy dangling) {
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edges = 2500;
  rmat.seed = 7;
  auto seeded = GenerateRmat(rmat);
  if (!seeded.ok()) return seeded.status();
  GraphBuilder builder(seeded->num_nodes());
  for (NodeId u = 0; u < seeded->num_nodes(); ++u) {
    for (NodeId v : seeded->OutNeighbors(u)) builder.AddEdge(u, v);
  }
  BuildOptions options;
  options.value_storage = storage;
  options.value_precision = precision;
  options.dangling_policy = dangling;
  return builder.Build(options);
}

template <typename V>
void CheckGraphsBitwise(const Graph& vf, const Graph& ex, uint64_t seed) {
  const std::vector<V> x = RandomVector<V>(vf.num_nodes(), seed);
  std::vector<V> y_vf, y_ex;
  vf.TransitionT<V>().SpMvTranspose(x, y_vf);
  ex.TransitionT<V>().SpMvTranspose(x, y_ex);
  ExpectBitwiseEq(y_vf, y_ex, "graph push");
}

TEST(ValueFreeGraphTest, ValueFreeGraphMatchesExplicitBitwise) {
  // kKeep leaves genuinely dangling nodes: empty out-rows whose zero row
  // scales are never read.
  for (DanglingPolicy dangling :
       {DanglingPolicy::kKeep, DanglingPolicy::kAddSelfLoop}) {
    auto vf = BuildTestGraph(ValueStorage::kRowConstant,
                             la::Precision::kFloat64, dangling);
    auto ex = BuildTestGraph(ValueStorage::kExplicit, la::Precision::kFloat64,
                             dangling);
    ASSERT_TRUE(vf.ok() && ex.ok());
    ASSERT_EQ(vf->value_storage(), ValueStorage::kRowConstant);
    if (dangling == DanglingPolicy::kKeep) {
      ASSERT_GT(vf->CountDangling(), 0u);
    }
    CheckGraphsBitwise<double>(*vf, *ex, 31);
    // And the whole kernel family.
    CheckValueFreeBitwise(vf->Transition(), 33, "graph out");
  }
}

TEST(ValueFreeGraphTest, Fp32TierMatchesExplicitBitwise) {
  auto vf = BuildTestGraph(ValueStorage::kRowConstant, la::Precision::kFloat32,
                           DanglingPolicy::kKeep);
  auto ex = BuildTestGraph(ValueStorage::kExplicit, la::Precision::kFloat32,
                           DanglingPolicy::kKeep);
  ASSERT_TRUE(vf.ok() && ex.ok());
  ASSERT_FALSE(vf->HasTier(la::Precision::kFloat64));
  CheckGraphsBitwise<float>(*vf, *ex, 37);
}

TEST(ValueFreeGraphTest, SizeBytesReflectsStorageMode) {
  auto vf = BuildTestGraph(ValueStorage::kRowConstant, la::Precision::kFloat64,
                           DanglingPolicy::kAddSelfLoop);
  auto ex = BuildTestGraph(ValueStorage::kExplicit, la::Precision::kFloat64,
                           DanglingPolicy::kAddSelfLoop);
  ASSERT_TRUE(vf.ok() && ex.ok());
  // Both directions' topology: the in-structure has the out-structure's
  // shape (n+1 offsets, nnz indices).
  const size_t structure_bytes =
      2 * la::CsrStructureBytes(vf->Transition().structure());
  // Value-free: one n-length 1/deg row-scale array for the out-CSR —
  // nothing proportional to nnz.
  EXPECT_EQ(vf->SizeBytes(),
            structure_bytes + vf->num_nodes() * sizeof(double));
  // Explicit: nnz fp64 out-CSR values on top of the same structure; the
  // in-CSR carries no values.
  EXPECT_EQ(ex->SizeBytes(),
            structure_bytes + ex->num_edges() * sizeof(double));
  EXPECT_LT(vf->SizeBytes(), ex->SizeBytes());
}

TEST(ValueFreeGraphTest, EnsureTierSharesOneTopology) {
  auto graph = BuildTestGraph(ValueStorage::kRowConstant,
                              la::Precision::kFloat64, DanglingPolicy::kKeep);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->HasTier(la::Precision::kFloat64));
  ASSERT_FALSE(graph->HasTier(la::Precision::kFloat32));

  const size_t before = graph->SizeBytes();
  graph->EnsureTier(la::Precision::kFloat32);
  ASSERT_TRUE(graph->HasTier(la::Precision::kFloat32));
  // The second tier added only its value layer (here: n fp32 row scales),
  // never a second copy of the topology…
  EXPECT_EQ(graph->SizeBytes(), before + graph->num_nodes() * sizeof(float));
  // …because both tiers alias the same index arrays.
  EXPECT_EQ(graph->Transition().structure().col_indices.data(),
            graph->TransitionF().structure().col_indices.data());
  // EnsureTier is idempotent.
  graph->EnsureTier(la::Precision::kFloat32);
  EXPECT_EQ(graph->SizeBytes(), before + graph->num_nodes() * sizeof(float));

  // Both tiers serve correct products off the shared topology.
  CheckGraphsBitwise<double>(*graph, *graph, 41);
  const std::vector<float> xf = RandomVector<float>(graph->num_nodes(), 43);
  std::vector<float> yf;
  graph->TransitionF().SpMvTranspose(xf, yf);
  ASSERT_EQ(yf.size(), graph->num_nodes());
}

TEST(ValueFreeGraphTest, TierAccessorsCheckUnmaterializedTier) {
  auto graph = BuildTestGraph(ValueStorage::kRowConstant,
                              la::Precision::kFloat64, DanglingPolicy::kKeep);
  ASSERT_TRUE(graph.ok());
  EXPECT_DEATH(graph->TransitionF(), "fp32");
}

TEST(ValueFreeGraphTest, RematerializeSharesStructure) {
  auto graph =
      BuildTestGraph(ValueStorage::kRowConstant, la::Precision::kFloat64,
                     DanglingPolicy::kAddSelfLoop);
  ASSERT_TRUE(graph.ok());

  Graph sibling = RematerializeWithPrecision(*graph, la::Precision::kFloat32);
  EXPECT_EQ(sibling.value_precision(), la::Precision::kFloat32);
  EXPECT_EQ(sibling.value_storage(), ValueStorage::kRowConstant);
  // The sibling aliases the topology — no O(nnz) copy.
  EXPECT_EQ(sibling.TransitionF().structure().col_indices.data(),
            graph->Transition().structure().col_indices.data());

  // The fp32 sibling's weights are the fp64 weights rounded once — spot
  // check through the mode-agnostic oracle.
  for (NodeId u = 0; u < graph->num_nodes(); u += 50) {
    if (graph->OutDegree(u) == 0) continue;
    const uint64_t e = graph->Transition().structure().row_offsets[u];
    EXPECT_EQ(sibling.TransitionF().EdgeWeight(u, e),
              static_cast<float>(graph->Transition().EdgeWeight(u, e)));
  }
}

}  // namespace
}  // namespace tpa

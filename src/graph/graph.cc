#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "la/width_dispatch.h"
#include "util/check.h"

namespace tpa {

namespace {

/// Per-edge normalized weights for the out-CSR: every edge in row u carries
/// 1/out-degree(u).  The reciprocal is computed in fp64 and rounded once to
/// the storage tier V — the exact expression the value-free kernels
/// synthesize per row, which is what pins kExplicit and kRowConstant
/// bitwise-identical.
template <typename V>
std::vector<V> OutWeights(std::span<const uint64_t> out_offsets,
                          size_t num_edges) {
  std::vector<V> weights(num_edges);
  const size_t num_nodes = out_offsets.size() - 1;
  for (size_t u = 0; u < num_nodes; ++u) {
    const uint64_t begin = out_offsets[u];
    const uint64_t end = out_offsets[u + 1];
    if (begin == end) continue;
    const V w = static_cast<V>(1.0 / static_cast<double>(end - begin));
    for (uint64_t e = begin; e < end; ++e) weights[e] = w;
  }
  return weights;
}

/// Per-node reciprocal out-degrees, the one n-length array value-free
/// storage keeps: the out-CSR reads it as a per-row scale (kRowConstant —
/// once per row, which beats synthesizing the division in-loop on
/// frontier-sparse queries).  Each entry is the same
/// fp64-reciprocal-rounded-once expression as OutWeights, which pins
/// value-free storage bitwise-identical to explicit storage.  Dangling
/// nodes get 0: the kernels skip an empty row, so those entries exist for
/// indexing but are never read.
template <typename V>
std::vector<V> OutDegreeReciprocals(std::span<const uint64_t> out_offsets) {
  const size_t num_nodes = out_offsets.size() - 1;
  std::vector<V> scales(num_nodes, V{0});
  for (size_t u = 0; u < num_nodes; ++u) {
    const uint64_t degree = out_offsets[u + 1] - out_offsets[u];
    if (degree == 0) continue;
    scales[u] = static_cast<V>(1.0 / static_cast<double>(degree));
  }
  return scales;
}

}  // namespace

Graph::Graph(NodeId num_nodes, std::vector<uint64_t> out_offsets,
             std::vector<NodeId> out_targets, std::vector<uint64_t> in_offsets,
             std::vector<NodeId> in_sources, la::Precision value_precision,
             ValueStorage value_storage)
    : num_nodes_(num_nodes),
      precision_(value_precision),
      value_storage_(value_storage) {
  TPA_CHECK_EQ(out_targets.size(), in_sources.size());
  // MakeCsrStructure validates offsets shape/monotonicity and index range.
  out_structure_ = la::MakeCsrStructure(num_nodes_, num_nodes_,
                                        std::move(out_offsets),
                                        std::move(out_targets));
  in_structure_ = la::MakeCsrStructure(num_nodes_, num_nodes_,
                                       std::move(in_offsets),
                                       std::move(in_sources));
  EnsureTier(precision_);
}

Graph::Graph(const Graph& other, la::Precision tier)
    : num_nodes_(other.num_nodes_),
      precision_(tier),
      value_storage_(other.value_storage_),
      out_structure_(other.out_structure_),  // aliases the shared topology
      in_structure_(other.in_structure_) {
  EnsureTier(tier);
}

template <typename V>
void Graph::MaterializeTierT(la::CsrMatrixT<V>& out) const {
  const std::span<const uint64_t> out_offsets =
      out_structure_.row_offsets.span();
  if (value_storage_ == ValueStorage::kExplicit) {
    out = la::CsrMatrixT<V>(out_structure_,
                            OutWeights<V>(out_offsets, out_structure_.nnz()));
  } else {
    out = la::CsrMatrixT<V>(out_structure_, la::CsrValueMode::kRowConstant,
                            OutDegreeReciprocals<V>(out_offsets));
  }
}

void Graph::EnsureTier(la::Precision tier) {
  if (HasTier(tier)) return;
  if (tier == la::Precision::kFloat64) {
    MaterializeTierT<double>(out_csr_);
    has_fp64_ = true;
  } else {
    MaterializeTierT<float>(out_csr_f_);
    has_fp32_ = true;
  }
}

template <typename V>
void Graph::MultiplyTransposeT(const std::vector<V>& x,
                               std::vector<V>& y) const {
  TPA_DCHECK(x.size() == num_nodes_);
  y.resize(num_nodes_);
  GatherTranspose(x.data(), 1, y.data());
}

template <typename V>
void Graph::MultiplyTransposeBlockT(const la::DenseBlockT<V>& x,
                                    la::DenseBlockT<V>& y) const {
  TPA_DCHECK(x.rows() == num_nodes_);
  y.Resize(num_nodes_, x.num_vectors());
  GatherTranspose(x.RowPtr(0), x.num_vectors(), y.RowPtr(0));
}

template <typename V>
void Graph::GatherTranspose(const V* x, size_t width, V* y) const {
  const la::CsrMatrixT<V>& transition = TransitionT<V>();
  const uint64_t* out_offsets = out_structure_.row_offsets.data();
  std::vector<V> p(size_t{num_nodes_} * width);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (out_offsets[u] == out_offsets[u + 1]) continue;  // never gathered
    const V w = transition.EdgeWeight(u, out_offsets[u]);
    for (size_t b = 0; b < width; ++b) {
      p[u * width + b] = w * x[u * width + b];
    }
  }
  la::DispatchWidth(width, [&]<size_t kWidth>(size_t col, auto stride) {
    for (NodeId v = 0; v < num_nodes_; ++v) {
      V sum[kWidth] = {};
      GatherRow<kWidth>(v, p.data() + col, stride, sum);
      std::copy_n(sum, kWidth, y + v * stride + col);
    }
  });
}

template void Graph::MultiplyTransposeT<double>(const std::vector<double>&,
                                                std::vector<double>&) const;
template void Graph::MultiplyTransposeT<float>(const std::vector<float>&,
                                               std::vector<float>&) const;
template void Graph::MultiplyTransposeBlockT<double>(const la::DenseBlock&,
                                                     la::DenseBlock&) const;
template void Graph::MultiplyTransposeBlockT<float>(const la::DenseBlockF&,
                                                    la::DenseBlockF&) const;

NodeId Graph::CountDangling() const {
  NodeId count = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (OutDegree(u) == 0) ++count;
  }
  return count;
}

Graph RematerializeWithPrecision(const Graph& graph, la::Precision precision) {
  return Graph(graph, precision);
}

}  // namespace tpa

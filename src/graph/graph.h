#ifndef TPA_GRAPH_GRAPH_H_
#define TPA_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "la/csr_matrix.h"
#include "la/precision.h"
#include "util/check.h"

namespace tpa {

namespace snapshot {
/// Assembles Graphs from deserialized parts (src/snapshot/) — the one friend
/// allowed to wire pre-built value layers and mmap-backed structures into a
/// Graph without going through GraphBuilder.
class GraphFactory;
}  // namespace snapshot

/// Node identifier.  32 bits covers every graph this repository targets
/// (the paper's largest graph has 68M nodes).
using NodeId = uint32_t;

/// How the normalized edge weights of a Graph are stored (see
/// la::CsrValueMode for the kernel-level mechanics).
enum class ValueStorage : uint8_t {
  /// One materialized value per edge — 12 bytes/nnz at fp64, 8 at fp32.
  /// The general mode; a future weighted-graph build path requires it.
  kExplicit,
  /// Value-free: the out-CSR reads 1/out-degree from a per-node scale (n
  /// entries, not nnz), cutting the streamed hot-loop footprint to the
  /// index-only ≈4 bytes/nnz.  Applies exactly because the out-degree
  /// normalization makes every edge weight a function of its source node —
  /// bitwise identical to kExplicit, which stores those same numbers per
  /// edge.
  kRowConstant,
};

/// Immutable directed graph stored as one shared index structure per
/// direction — out-edges (the row-normalized adjacency matrix Ã) and
/// in-edges (its transpose's topology) — plus per-precision-tier value
/// arrays on the out-CSR.  The normalized edge weights (1/out-degree of the
/// source) are materialized once (or, under ValueStorage::kRowConstant,
/// read from a per-node scale), so the transition-matrix product Ã^T·x that
/// dominates every method's runtime reads one weight per source row, with
/// no per-edge degree lookup or division.
///
/// Dual-tier layout: the topology (offsets + indices) lives in
/// la::CsrStructure bundles held by shared_ptr, and each precision tier is
/// a CsrMatrixT aliasing that structure with its own (possibly empty)
/// value array.  A graph is built at one primary tier
/// (BuildOptions::value_precision, returned by value_precision());
/// EnsureTier materializes the other tier in place — value arrays only,
/// topology shared — and RematerializeWithPrecision produces a sibling
/// Graph at the other tier that shares the same structure arrays, so one
/// process serves fp64 and fp32 off one copy of the topology.  The
/// structure accessors (degrees, neighbor spans, offsets) read the shared
/// structure directly and work regardless of tiers; the typed matrix
/// accessors CHECK that the requested tier is materialized.
///
/// Dense propagation gathers over in-edges (GatherRow): each destination
/// sums the products p(u) = w(u)·x(u) of its in-neighbors, which are the
/// values the out-CSR scatter adds into it, in the order it adds them.
/// The in-edge topology carries no values; it also serves the in-neighbor
/// walks of the push-style local methods, HubPPR, and graph statistics.
/// The out-CSR scatter remains the frontier-sparse head of CPI.
///
/// Dangling nodes (out-degree 0) lose their score mass during propagation,
/// matching CPI's column-substochastic treatment; graph sources that need
/// strict stochasticity (the paper's convergence lemmas assume it) should
/// build with GraphBuilder's self-loop policy.
class Graph {
 public:
  /// Builds from a sorted, deduplicated edge set, adopting its arrays.  Use
  /// GraphBuilder instead of calling this directly.
  Graph(NodeId num_nodes, la::PageVector<uint64_t> out_offsets,
        la::PageVector<NodeId> out_targets,
        la::PageVector<uint64_t> in_offsets,
        la::PageVector<NodeId> in_sources,
        la::Precision value_precision = la::Precision::kFloat64,
        ValueStorage value_storage = ValueStorage::kExplicit);

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return out_structure_.nnz(); }

  /// The primary precision tier — the one the graph was built at and the
  /// one engines serve at.  EnsureTier may materialize the other tier too;
  /// HasTier reports what is actually available.
  la::Precision value_precision() const { return precision_; }

  /// The value storage mode shared by every materialized tier.
  ValueStorage value_storage() const { return value_storage_; }

  /// Whether the given tier's matrices are materialized.
  bool HasTier(la::Precision tier) const {
    return tier == la::Precision::kFloat64 ? has_fp64_ : has_fp32_;
  }

  /// Materializes the given tier's value arrays over the shared topology
  /// (no-op when already present).  O(n) under kRowConstant, O(nnz) under
  /// kExplicit — never copies the index structure.  Not thread-safe; call
  /// before concurrent serving starts.
  void EnsureTier(la::Precision tier);

  uint32_t OutDegree(NodeId u) const {
    const uint64_t* offsets = out_structure_.row_offsets.data();
    return static_cast<uint32_t>(offsets[u + 1] - offsets[u]);
  }
  uint32_t InDegree(NodeId v) const {
    const uint64_t* offsets = in_structure_.row_offsets.data();
    return static_cast<uint32_t>(offsets[v + 1] - offsets[v]);
  }

  std::span<const NodeId> OutNeighbors(NodeId u) const {
    const uint64_t* offsets = out_structure_.row_offsets.data();
    const NodeId* targets = out_structure_.col_indices.data();
    return {targets + offsets[u], targets + offsets[u + 1]};
  }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    const uint64_t* offsets = in_structure_.row_offsets.data();
    const NodeId* sources = in_structure_.col_indices.data();
    return {sources + offsets[v], sources + offsets[v + 1]};
  }

  /// The raw out-CSR index arrays — the adjacency view consumed by
  /// structure-only algorithms (reorder::SlashBurn).
  std::span<const uint64_t> OutOffsets() const {
    return out_structure_.row_offsets.span();
  }
  std::span<const NodeId> OutTargets() const {
    return out_structure_.col_indices.span();
  }
  /// The raw in-CSR index arrays: row v lists v's in-neighbors.
  std::span<const uint64_t> InOffsets() const {
    return in_structure_.row_offsets.span();
  }
  std::span<const NodeId> InSources() const {
    return in_structure_.col_indices.span();
  }

  /// Ã as a weighted CSR at tier V: row u holds u's out-neighbors with
  /// weight 1/out-degree(u).  CHECK-fails when that tier has not been
  /// materialized (fp64-only methods must not silently run on an fp32-only
  /// graph, and vice versa) — see EnsureTier.
  template <typename V>
  const la::CsrMatrixT<V>& TransitionT() const {
    if constexpr (std::is_same_v<V, double>) {
      TPA_CHECK(has_fp64_);
      return out_csr_;
    } else {
      TPA_CHECK(has_fp32_);
      return out_csr_f_;
    }
  }

  /// The fp64 matrix (the historical accessor; CHECK fp64 tier).
  const la::CsrMatrix& Transition() const { return TransitionT<double>(); }
  /// The fp32 matrix (CHECK fp32 tier).
  const la::CsrMatrixF& TransitionF() const { return TransitionT<float>(); }

  /// Number of dangling (out-degree zero) nodes.
  NodeId CountDangling() const;

  /// y = Ã^T x, with y resized and every entry written: the width-1 case of
  /// MultiplyTransposeBlockT.
  template <typename V>
  void MultiplyTransposeT(const std::vector<V>& x, std::vector<V>& y) const;
  void MultiplyTranspose(const std::vector<double>& x,
                         std::vector<double>& y) const {
    MultiplyTransposeT<double>(x, y);
  }

  /// Y = Ã^T X for a block of vectors, with Y resized to n × B and every
  /// entry written: p(u) = w(u)·x(u) is formed in a scratch block, then
  /// every row of Y is gathered once (GatherRow).  Per vector, bitwise the
  /// reference scatter CsrMatrixT::SpMmTranspose, and so MultiplyTransposeT
  /// of that vector alone.
  template <typename V>
  void MultiplyTransposeBlockT(const la::DenseBlockT<V>& x,
                               la::DenseBlockT<V>& y) const;
  void MultiplyTransposeBlock(const la::DenseBlock& x,
                              la::DenseBlock& y) const {
    MultiplyTransposeBlockT<double>(x, y);
  }

  /// The destination gather of every dense propagation: adds into y[b],
  /// for each in-neighbor u of v in the in-CSR's order, p[u·stride + b]
  /// for b < kWidth.  With p(u) = w(u)·x(u), these are the products the
  /// out-CSR scatter adds into v, in the order it adds them, so from
  /// y = +0.0 the sum is bitwise the scatter's.  That needs each in-row in
  /// ascending source order and one weight per out-row, which every
  /// builder's graph has and Tpa::Preprocess checks.
  /// A source row of a cache line or more is prefetched 16 edges ahead:
  /// above the LLC that hides most of the random row fetch's latency.
  template <size_t kWidth, typename V, typename Stride>
  void GatherRow(NodeId v, const V* p, Stride stride, V* y) const {
    const uint64_t* offsets = in_structure_.row_offsets.data();
    const NodeId* sources = in_structure_.col_indices.data();
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      if constexpr (kWidth * sizeof(V) >= 64) {
        if (e + 16 < in_structure_.nnz()) {
          __builtin_prefetch(p + size_t{sources[e + 16]} * stride);
        }
      }
      const V* __restrict pu = p + size_t{sources[e]} * stride;
      for (size_t b = 0; b < kWidth; ++b) y[b] += pu[b];
    }
  }

  /// Logical bytes held by this graph (experiment reporting and the
  /// engine's kAuto batch heuristic): each direction's index structure
  /// counted once, plus the out-CSR value/scale array of every materialized
  /// tier.  Under kRowConstant the per-tier addition is O(n) scale bytes
  /// instead of O(nnz) values — the footprint the value-free hot loops
  /// actually stream.  Structure-sharing sibling graphs each report the full
  /// structure; callers deduplicating across siblings can subtract
  /// la::CsrStructureBytes.
  size_t SizeBytes() const {
    size_t bytes = la::CsrStructureBytes(out_structure_) +
                   la::CsrStructureBytes(in_structure_);
    if (has_fp64_) bytes += out_csr_.ValueBytes();
    if (has_fp32_) bytes += out_csr_f_.ValueBytes();
    return bytes;
  }

 private:
  /// Shared-structure sibling at another tier (RematerializeWithPrecision).
  Graph(const Graph& other, la::Precision tier);
  friend Graph RematerializeWithPrecision(const Graph& graph,
                                          la::Precision precision);
  /// Snapshot load path: GraphFactory fills the fields directly from
  /// deserialized (possibly mmap-backed) structures and value layers.
  Graph() = default;
  friend class snapshot::GraphFactory;

  template <typename V>
  void MaterializeTierT(la::CsrMatrixT<V>& out) const;
  /// The two transpose products on raw n × width row-major blocks.
  template <typename V>
  void GatherTranspose(const V* x, size_t width, V* y) const;

  NodeId num_nodes_ = 0;
  la::Precision precision_ = la::Precision::kFloat64;
  ValueStorage value_storage_ = ValueStorage::kExplicit;
  la::CsrStructure out_structure_;  // Ã topology: row u → out-neighbors
  la::CsrStructure in_structure_;   // topology only: row v → in-neighbors
  bool has_fp64_ = false;
  bool has_fp32_ = false;
  // Tier value layers over the shared out-structure; weight of an edge from
  // u is 1/out-degree(u) at both tiers, stored or read from a per-node scale
  // per value_storage_.  Unmaterialized tiers stay default-empty.
  la::CsrMatrix out_csr_;
  la::CsrMatrixF out_csr_f_;
};

/// Re-materializes `graph` at the other precision tier: a sibling Graph
/// whose primary tier is `precision` and whose index structure *aliases*
/// the input's (shared_ptr topology — no O(nnz) copy; only the new tier's
/// value arrays are built).  Used by benchmarks and tests to compare tiers
/// on identical graphs, and by servers that load a graph once and serve both
/// tiers off one topology.
Graph RematerializeWithPrecision(const Graph& graph, la::Precision precision);

}  // namespace tpa

#endif  // TPA_GRAPH_GRAPH_H_

#ifndef TPA_LA_CSR_MATRIX_H_
#define TPA_LA_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "la/dense_block.h"
#include "la/precision.h"
#include "la/shared_array.h"
#include "util/status.h"

namespace tpa::la {

/// Reusable scratch state of the frontier kernels: an epoch-stamped touch
/// mark per destination plus the collector for the next frontier.  Epoch
/// stamping makes the per-call reset O(1) instead of an O(cols) clear; the
/// stamp array itself is (re)sized lazily.  One scratch belongs to one
/// propagation loop at a time (not thread-safe).  Value-type agnostic: the
/// same scratch serves fp64 and fp32 matrices.
struct FrontierScratch {
  std::vector<uint32_t> touched_epoch;
  uint32_t epoch = 0;

  /// Starts a new kernel invocation over `cols` destinations.
  void BeginEpoch(size_t cols) {
    if (touched_epoch.size() < cols) touched_epoch.resize(cols, 0);
    if (++epoch == 0) {  // wrapped: stamps from older epochs must not alias
      std::fill(touched_epoch.begin(), touched_epoch.end(), 0);
      epoch = 1;
    }
  }
};

/// How a CsrMatrixT stores (or synthesizes) its edge values.
enum class CsrValueMode : uint8_t {
  /// One stored value per edge (size nnz) — the general weighted case.
  kExplicit,
  /// Every edge in row r carries the same weight: either synthesized in
  /// registers as 1/row-nnz (no array at all — the out-degree-normalized
  /// transition matrix, where the value stream is pure redundancy) or read
  /// from a caller-supplied per-row scale array of size rows (not nnz).
  kRowConstant,
};

/// The index structure of a CSR matrix — row offsets plus column indices —
/// held as SharedArrays so several matrices (the two precision tiers of a
/// graph, or a value-free twin next to an explicit one) alias one topology
/// instead of cloning it.  Immutable once built.  The arrays may be
/// heap-backed (MakeCsrStructure) or non-owning views into an mmap'd
/// snapshot (SharedArray::View) — the kernels consume raw pointers either
/// way.
struct CsrStructure {
  uint32_t rows = 0;
  uint32_t cols = 0;
  SharedArray<uint64_t> row_offsets;  // size rows+1
  SharedArray<uint32_t> col_indices;  // size nnz

  size_t nnz() const { return col_indices.size(); }
};

/// The structural invariants a CSR offsets/indices pair must hold before a
/// kernel indexes with it: row_offsets has rows+1 entries, starts at 0, is
/// monotone and ends at col_indices.size(); every column index is < cols.
/// The one check shared by MakeCsrStructure, the snapshot loader and the
/// TPACSR reopen path — a violation comes back as InvalidArgument naming
/// the offending entry.
Status CheckCsrArrays(uint64_t rows, uint64_t cols,
                      std::span<const uint64_t> row_offsets,
                      std::span<const uint32_t> col_indices);

/// Validates (CheckCsrArrays) and adopts the arrays into a shareable
/// structure.  CHECK-fails on a violation (programming error: callers
/// construct from already-validated arrays).
CsrStructure MakeCsrStructure(uint32_t rows, uint32_t cols,
                              SharedArray<uint64_t> row_offsets,
                              SharedArray<uint32_t> col_indices);
CsrStructure MakeCsrStructure(uint32_t rows, uint32_t cols,
                              std::vector<uint64_t> row_offsets,
                              std::vector<uint32_t> col_indices);

/// Bytes of the index structure alone (offsets + indices).
size_t CsrStructureBytes(const CsrStructure& structure);

/// Immutable CSR matrix holding Ã, the out-CSR of every Graph: the
/// frontier-sparse scatter of CPI's head, and the reference scatter that
/// Graph's destination gather (the dense propagation) is pinned against.
///
/// Unlike SparseMatrix (the assembly-friendly triplet format used by the
/// block-elimination precomputations), CsrMatrixT is built directly from
/// already-sorted row-pointer/column-index arrays and stores the normalized
/// edge weights inline with the column indices, so the scatter inner loop is
/// a single contiguous sweep over (index, value) pairs — no per-edge degree
/// lookup, no division, no branch.
///
/// The value storage has two modes (CsrValueMode).  kExplicit keeps one
/// value per edge — 12 bytes/nnz at fp64, 8 at fp32.  The value-free
/// kRowConstant drops the per-edge array entirely and the kernels
/// synthesize each weight in registers (1/row-nnz or a per-row scale,
/// hoisted out of the edge loop), cutting the streamed footprint to the
/// index-only ≈4 bytes/nnz.  Every kernel is bitwise-identical across
/// modes when the explicit values equal the synthesized ones bitwise: the
/// synthesized weight is computed by the exact expression that materialized
/// the explicit array (1/deg in fp64, rounded once to V), and hoisting the
/// per-row product out of a scatter loop reorders no floating-point
/// operation — each destination still accumulates the identical product in
/// the identical order.
///
/// V is the storage precision tier of the edge values and the vector/block
/// operands (see Precision).  The kernels are scatters — y[col[e]] +=
/// values[e] · x[r], Ã^T·x over the out-CSR — and update destinations in
/// native V (one product + add rounding per edge), which is what lets the
/// fp32 inner loop vectorize at twice the fp64 lane width instead of
/// paying a convert per operand:
/// per-destination error O(in-degree · eps_f32), the same order a V-typed
/// accumulator implies in any case.  The V = double instantiation is
/// bitwise-identical to the historical all-double kernels.
template <typename V>
class CsrMatrixT {
 public:
  using value_type = V;

  CsrMatrixT() = default;

  /// Explicit-value matrix adopting the arrays; validates like
  /// MakeCsrStructure and additionally requires values.size() == nnz.
  CsrMatrixT(uint32_t rows, uint32_t cols, std::vector<uint64_t> row_offsets,
             std::vector<uint32_t> col_indices, std::vector<V> values);

  /// Value-free matrix adopting the arrays.  For kRowConstant, `scales` is
  /// either empty (weights synthesized as 1/row-nnz) or one entry per row.
  /// Passing kExplicit makes
  /// `scales` the per-edge value array (size nnz) — that is also where the
  /// legacy five-argument shape lands when `values` is spelled `{}`, since
  /// an empty braced list value-initializes CsrValueMode.
  CsrMatrixT(uint32_t rows, uint32_t cols, std::vector<uint64_t> row_offsets,
             std::vector<uint32_t> col_indices, CsrValueMode mode,
             std::vector<V> scales = {});

  /// Explicit-value matrix over an already-validated shared structure: the
  /// topology is aliased, not copied.  `values` is a SharedArray so the
  /// value layer may be a heap vector (implicit conversion — the legacy
  /// shape) or a non-owning view into a mapped snapshot.
  CsrMatrixT(CsrStructure structure, SharedArray<V> values);

  /// Value-free matrix over an already-validated shared structure (with the
  /// same kExplicit fallback as the adopting overload above).
  CsrMatrixT(CsrStructure structure, CsrValueMode mode,
             SharedArray<V> scales = {});

  uint32_t rows() const { return structure_.rows; }
  uint32_t cols() const { return structure_.cols; }
  size_t nnz() const { return structure_.nnz(); }

  /// The shared index structure — alias it into another matrix (a second
  /// precision tier, a value-free twin) instead of copying the topology.
  const CsrStructure& structure() const { return structure_; }

  CsrValueMode value_mode() const { return mode_; }

  /// The value/scale arrays exactly as stored — the serialization view.
  /// values() is non-empty only under kExplicit (nnz entries); scales() only
  /// under scaled kRowConstant (rows entries).
  const SharedArray<V>& values() const { return values_; }
  const SharedArray<V>& scales() const { return scales_; }

  uint32_t RowNnz(uint32_t r) const {
    const uint64_t* offsets = structure_.row_offsets.data();
    return static_cast<uint32_t>(offsets[r + 1] - offsets[r]);
  }
  std::span<const uint32_t> RowIndices(uint32_t r) const {
    const uint64_t* offsets = structure_.row_offsets.data();
    const uint32_t* indices = structure_.col_indices.data();
    return {indices + offsets[r], indices + offsets[r + 1]};
  }
  /// The stored per-edge values of row r.  CHECK-fails unless the matrix is
  /// kExplicit — value-free modes have no per-edge array to point into; use
  /// EdgeWeight for a mode-agnostic (but per-edge-cost) view.
  std::span<const V> RowValues(uint32_t r) const;

  /// The weight of edge `e` of row `r`, whatever the storage mode — the
  /// value the kernels act on.  O(1); for tests and debugging, not hot
  /// loops.  Requires row_offsets[r] <= e < row_offsets[r+1].
  V EdgeWeight(uint32_t r, uint64_t e) const;

  /// y = A^T x (scatter over rows).  y is resized and zeroed first.
  /// Requires x.size() == rows().  This and SpMmTranspose are the plain
  /// reference scatter: the frontier head's fall-through and the kernel
  /// tests run them, while Graph propagates with the destination gather
  /// (Graph::MultiplyTransposeBlockT), which matches them bitwise.
  void SpMvTranspose(const std::vector<V>& x, std::vector<V>& y) const;

  /// Multi-vector scatter: Y = A^T X, one CSR sweep updating all B vectors
  /// (Y is reshaped to cols() × B and zeroed first).  For inputs free of
  /// NaN/Inf/−0.0, vector b of Y is bitwise-identical to SpMvTranspose run
  /// on vector b of X alone: per vector, the edge contributions accumulate
  /// in exactly the scalar order.  Block rows of X that are entirely zero
  /// are skipped, mirroring the scalar kernel's zero-source skip.  Requires
  /// x.rows() == rows().
  void SpMmTranspose(const DenseBlockT<V>& x, DenseBlockT<V>& y) const;

  /// Frontier-sparse scatter: the adaptive head of the propagation loop
  /// (CPI runs it at every width, a single seed at width 1).
  ///
  /// `frontier` lists, in ascending order, a superset of the rows where any
  /// of the B vectors of x is nonzero (the union frontier); block rows that
  /// are entirely zero are skipped, exactly like the dense kernel's
  /// zero-row skip.  y must be cols() × B and all-zero on entry — the
  /// kernel only accumulates, so the caller keeps recycling one buffer by
  /// re-zeroing the rows named in the previously emitted frontier.  On
  /// return `next_frontier` holds the touched destinations, sorted
  /// ascending — a superset of the nonzero rows of y, i.e. the frontier of
  /// the next iteration.
  ///
  /// When the frontier is dense — frontier.size() > density_threshold ·
  /// rows() — the kernel falls through to SpMmTranspose (full zero + full
  /// scatter), leaves next_frontier empty, and returns false: the signal to
  /// stay on the dense kernels for the remaining iterations.
  ///
  /// For inputs free of NaN/Inf/−0.0, y is per vector bitwise-identical to
  /// SpMmTranspose — and so to SpMvTranspose of that vector alone — either
  /// way: contributions accumulate per destination in ascending source-row
  /// order, the dense kernel's order.
  bool SpMmTransposeFrontier(const DenseBlockT<V>& x,
                             std::span<const uint32_t> frontier,
                             double density_threshold, DenseBlockT<V>& y,
                             std::vector<uint32_t>& next_frontier,
                             FrontierScratch& scratch) const;

  /// Logical storage bytes: StructureBytes() + ValueBytes().  When several
  /// matrices alias one structure, each reports the full structure — use
  /// the split accessors to count shared topology once.
  size_t SizeBytes() const;
  /// Bytes of the (possibly shared) index structure.
  size_t StructureBytes() const { return CsrStructureBytes(structure_); }
  /// Bytes owned by this matrix alone: the value array (kExplicit, nnz
  /// entries) or the scale array (value-free, rows entries or none).
  size_t ValueBytes() const {
    return values_.size() * sizeof(V) + scales_.size() * sizeof(V);
  }

 private:
  CsrStructure structure_;
  CsrValueMode mode_ = CsrValueMode::kExplicit;
  SharedArray<V> values_;  // kExplicit: size nnz; else empty
  SharedArray<V> scales_;  // kRowConstant: empty or rows
};

/// The fp64 matrix every pre-precision-tier caller already uses.
using CsrMatrix = CsrMatrixT<double>;
/// The fp32 tier: 8 bytes/nnz instead of 12 (index + value).
using CsrMatrixF = CsrMatrixT<float>;

extern template class CsrMatrixT<double>;
extern template class CsrMatrixT<float>;

}  // namespace tpa::la

#endif  // TPA_LA_CSR_MATRIX_H_

#include "la/csr_matrix.h"

#include <algorithm>
#include <string>

#include "la/width_dispatch.h"
#include "util/check.h"

namespace tpa::la {

Status CheckCsrArrays(uint64_t rows, uint64_t cols,
                      std::span<const uint64_t> row_offsets,
                      std::span<const uint32_t> col_indices) {
  if (row_offsets.size() != rows + 1) {
    return InvalidArgumentError(
        "row_offsets has " + std::to_string(row_offsets.size()) +
        " entries, want rows+1 = " + std::to_string(rows + 1));
  }
  if (row_offsets.front() != 0) {
    return InvalidArgumentError("row_offsets[0] = " +
                                std::to_string(row_offsets.front()) +
                                ", want 0");
  }
  for (uint64_t r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      return InvalidArgumentError(
          "row_offsets not monotone at row " + std::to_string(r) + ": " +
          std::to_string(row_offsets[r]) + " > " +
          std::to_string(row_offsets[r + 1]));
    }
  }
  if (row_offsets.back() != col_indices.size()) {
    return InvalidArgumentError(
        "row_offsets[rows] = " + std::to_string(row_offsets.back()) +
        " does not match the index count " +
        std::to_string(col_indices.size()));
  }
  for (size_t i = 0; i < col_indices.size(); ++i) {
    if (col_indices[i] >= cols) {
      return InvalidArgumentError("col_indices[" + std::to_string(i) + "] = " +
                                  std::to_string(col_indices[i]) +
                                  " out of range for " + std::to_string(cols) +
                                  " columns");
    }
  }
  return OkStatus();
}

CsrStructure MakeCsrStructure(uint32_t rows, uint32_t cols,
                              std::vector<uint64_t> row_offsets,
                              std::vector<uint32_t> col_indices) {
  const Status valid = CheckCsrArrays(rows, cols, row_offsets, col_indices);
  if (!valid.ok()) {
    internal_check::CheckFail(__FILE__, __LINE__, "CheckCsrArrays",
                              valid.ToString());
  }
  CsrStructure structure;
  structure.rows = rows;
  structure.cols = cols;
  structure.row_offsets = SharedArray<uint64_t>(std::move(row_offsets));
  structure.col_indices = SharedArray<uint32_t>(std::move(col_indices));
  return structure;
}

size_t CsrStructureBytes(const CsrStructure& structure) {
  return structure.row_offsets.size() * sizeof(uint64_t) +
         structure.col_indices.size() * sizeof(uint32_t);
}

namespace {

/// Value policies: how a kernel obtains the weight of an edge.  Each kernel
/// loop is templated on one of these, so the value-free modes compile to
/// loops with no value load at all — kRowConstant additionally advertises
/// itself via kRowConstantWeight so the loop can hoist the per-row product
/// out of the edge sweep (the hoisted product is computed by the identical
/// multiplication the explicit kernel performs per edge, so every
/// destination accumulates bitwise-identical contributions in the identical
/// order).
template <typename V>
struct ExplicitVals {
  static constexpr bool kRowConstantWeight = false;
  const V* values;
  V Row(uint32_t) const { return V{}; }  // unused
  V Edge(uint64_t e) const { return values[e]; }
};

/// Synthesized 1/row-nnz — no array.  The expression matches the one that
/// materializes explicit normalized weights (fp64 reciprocal, one rounding
/// to V), so the synthesized weight is bitwise-equal to the stored one.
/// Row() must not be called on an empty row (1/0); the loops guard.
template <typename V>
struct SynthRowVals {
  static constexpr bool kRowConstantWeight = true;
  const uint64_t* offsets;
  V Row(uint32_t r) const {
    return static_cast<V>(1.0 /
                          static_cast<double>(offsets[r + 1] - offsets[r]));
  }
  V Edge(uint64_t) const { return V{}; }  // unused
};

template <typename V>
struct RowScaleVals {
  static constexpr bool kRowConstantWeight = true;
  const V* scales;  // size rows
  V Row(uint32_t r) const { return scales[r]; }
  V Edge(uint64_t) const { return V{}; }  // unused
};

/// Invokes f with the value policy matching `mode` — the single runtime
/// branch per kernel call; everything inside is mode-specialized code.
template <typename V, typename F>
void DispatchVals(CsrValueMode mode, const SharedArray<V>& values,
                  const SharedArray<V>& scales, const uint64_t* offsets,
                  F&& f) {
  switch (mode) {
    case CsrValueMode::kExplicit:
      f(ExplicitVals<V>{values.data()});
      return;
    case CsrValueMode::kRowConstant:
      if (scales.empty()) {
        f(SynthRowVals<V>{offsets});
      } else {
        f(RowScaleVals<V>{scales.data()});
      }
      return;
  }
}

/// The reference scatter y[col[e]] += w(e)·x[r] over every row in
/// ascending order, for a row-major block of `width` vectors (width 1 is
/// SpMvTranspose).  A row whose block row is entirely zero is skipped.
template <typename V, typename Vals>
void ScatterRows(const uint64_t* offsets, const uint32_t* indices, Vals vals,
                 uint32_t rows, size_t width, const V* x, V* y) {
  for (uint32_t r = 0; r < rows; ++r) {
    const V* xr = x + size_t{r} * width;
    if (std::all_of(xr, xr + width, [](V v) { return v == V{0}; })) continue;
    for (uint64_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      const V w = Vals::kRowConstantWeight ? vals.Row(r) : vals.Edge(e);
      V* yr = y + size_t{indices[e]} * width;
      for (size_t b = 0; b < width; ++b) yr[b] += w * xr[b];
    }
  }
}

}  // namespace

template <typename V>
CsrMatrixT<V>::CsrMatrixT(uint32_t rows, uint32_t cols,
                          std::vector<uint64_t> row_offsets,
                          std::vector<uint32_t> col_indices,
                          std::vector<V> values)
    : structure_(MakeCsrStructure(rows, cols, std::move(row_offsets),
                                  std::move(col_indices))),
      mode_(CsrValueMode::kExplicit),
      values_(std::move(values)) {
  TPA_CHECK_EQ(structure_.nnz(), values_.size());
}

template <typename V>
CsrMatrixT<V>::CsrMatrixT(uint32_t rows, uint32_t cols,
                          std::vector<uint64_t> row_offsets,
                          std::vector<uint32_t> col_indices, CsrValueMode mode,
                          std::vector<V> scales)
    : CsrMatrixT(MakeCsrStructure(rows, cols, std::move(row_offsets),
                                  std::move(col_indices)),
                 mode, std::move(scales)) {}

template <typename V>
CsrMatrixT<V>::CsrMatrixT(CsrStructure structure, SharedArray<V> values)
    : structure_(std::move(structure)),
      mode_(CsrValueMode::kExplicit),
      values_(std::move(values)) {
  TPA_CHECK(structure_.row_offsets.data() != nullptr);
  TPA_CHECK_EQ(structure_.nnz(), values_.size());
}

template <typename V>
CsrMatrixT<V>::CsrMatrixT(CsrStructure structure, CsrValueMode mode,
                          SharedArray<V> scales)
    : structure_(std::move(structure)), mode_(mode) {
  TPA_CHECK(structure_.row_offsets.data() != nullptr);
  if (mode_ == CsrValueMode::kExplicit) {
    // Overload resolution lands here from the legacy (rows, cols, offsets,
    // indices, values) shape when `values` is spelled `{}`: an empty braced
    // list value-initializes CsrValueMode to kExplicit.  Treat the trailing
    // vector as the per-edge value array so that spelling keeps working.
    values_ = std::move(scales);
    TPA_CHECK_EQ(structure_.nnz(), values_.size());
    return;
  }
  scales_ = std::move(scales);
  TPA_CHECK(scales_.empty() ||
            scales_.size() == static_cast<size_t>(structure_.rows));
}

template <typename V>
std::span<const V> CsrMatrixT<V>::RowValues(uint32_t r) const {
  TPA_CHECK(mode_ == CsrValueMode::kExplicit);
  const uint64_t* offsets = structure_.row_offsets.data();
  return {values_.data() + offsets[r], values_.data() + offsets[r + 1]};
}

template <typename V>
V CsrMatrixT<V>::EdgeWeight(uint32_t r, uint64_t e) const {
  switch (mode_) {
    case CsrValueMode::kExplicit:
      return values_[e];
    case CsrValueMode::kRowConstant:
      return scales_.empty()
                 ? static_cast<V>(1.0 / static_cast<double>(RowNnz(r)))
                 : scales_[r];
  }
  return V{};  // unreachable
}

template <typename V>
void CsrMatrixT<V>::SpMvTranspose(const std::vector<V>& x,
                                  std::vector<V>& y) const {
  TPA_DCHECK(x.size() == rows());
  y.assign(cols(), V{0});
  const uint64_t* offsets = structure_.row_offsets.data();
  DispatchVals<V>(mode_, values_, scales_, offsets, [&](auto vals) {
    ScatterRows(offsets, structure_.col_indices.data(), vals, rows(), 1,
                x.data(), y.data());
  });
}

template <typename V>
void CsrMatrixT<V>::SpMmTranspose(const DenseBlockT<V>& x,
                                  DenseBlockT<V>& y) const {
  TPA_DCHECK(x.rows() == rows());
  y.Resize(cols(), x.num_vectors());
  y.SetZero();
  const uint64_t* offsets = structure_.row_offsets.data();
  DispatchVals<V>(mode_, values_, scales_, offsets, [&](auto vals) {
    ScatterRows(offsets, structure_.col_indices.data(), vals, rows(),
                x.num_vectors(), x.RowPtr(0), y.RowPtr(0));
  });
}

namespace {

/// Inner loop of the block frontier scatter over one column slab of a
/// row-major block with `stride` columns (see DispatchWidth).  Touched
/// destinations are collected once via the epoch marks, so the later slabs
/// of a wider block add none twice; the caller sorts them afterwards.
template <size_t kWidth, typename V, typename Vals, typename Stride>
void SpMmTransposeFrontierRows(const uint64_t* offsets, const uint32_t* indices,
                               Vals vals, std::span<const uint32_t> frontier,
                               Stride stride, const V* x, V* y,
                               std::vector<uint32_t>& next_frontier,
                               FrontierScratch& scratch) {
  for (uint32_t r : frontier) {
    const V* __restrict xr = x + size_t{r} * stride;
    bool any_nonzero = false;
    for (size_t b = 0; b < kWidth; ++b) any_nonzero |= (xr[b] != V{0});
    const uint64_t begin = offsets[r];
    const uint64_t end = offsets[r + 1];
    if (!any_nonzero || begin == end) continue;
    // A row-constant weight hoists the row's products out of the edge loop.
    V p[kWidth];
    const auto products = [&](V w) {
      for (size_t b = 0; b < kWidth; ++b) p[b] = w * xr[b];
    };
    if constexpr (Vals::kRowConstantWeight) products(vals.Row(r));
    for (uint64_t e = begin; e < end; ++e) {
      if constexpr (!Vals::kRowConstantWeight) products(vals.Edge(e));
      const uint32_t dest = indices[e];
      V* __restrict yr = y + size_t{dest} * stride;
      for (size_t b = 0; b < kWidth; ++b) yr[b] += p[b];
      if (scratch.touched_epoch[dest] != scratch.epoch) {
        scratch.touched_epoch[dest] = scratch.epoch;
        next_frontier.push_back(dest);
      }
    }
  }
}

}  // namespace

template <typename V>
bool CsrMatrixT<V>::SpMmTransposeFrontier(const DenseBlockT<V>& x,
                                          std::span<const uint32_t> frontier,
                                          double density_threshold,
                                          DenseBlockT<V>& y,
                                          std::vector<uint32_t>& next_frontier,
                                          FrontierScratch& scratch) const {
  TPA_DCHECK(x.rows() == rows());
  if (static_cast<double>(frontier.size()) >
      density_threshold * static_cast<double>(rows())) {
    SpMmTranspose(x, y);
    next_frontier.clear();
    return false;
  }
  TPA_DCHECK(y.rows() == cols());
  TPA_DCHECK(y.num_vectors() == x.num_vectors());
  scratch.BeginEpoch(cols());
  next_frontier.clear();
  if (rows() == 0) return true;
  const size_t width = x.num_vectors();
  const uint64_t* offsets = structure_.row_offsets.data();
  const uint32_t* indices = structure_.col_indices.data();
  DispatchVals<V>(mode_, values_, scales_, offsets, [&](auto vals) {
    DispatchWidth(width, [&]<size_t kWidth>(size_t col, auto stride) {
      SpMmTransposeFrontierRows<kWidth>(offsets, indices, vals, frontier,
                                        stride, x.RowPtr(0) + col,
                                        y.RowPtr(0) + col, next_frontier,
                                        scratch);
    });
  });
  std::sort(next_frontier.begin(), next_frontier.end());
  return true;
}

template <typename V>
size_t CsrMatrixT<V>::SizeBytes() const {
  return StructureBytes() + ValueBytes();
}

template class CsrMatrixT<double>;
template class CsrMatrixT<float>;

}  // namespace tpa::la

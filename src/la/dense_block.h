#ifndef TPA_LA_DENSE_BLOCK_H_
#define TPA_LA_DENSE_BLOCK_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "la/precision.h"

namespace tpa::la {

/// Minimal allocator aligning DenseBlock storage to cache-line boundaries,
/// so an 8-vector block row is exactly one 64-byte line (not two straddled
/// ones) in the blocked propagation kernels.
///
/// It aligns inside an ordinary allocation one line larger, keeping the
/// base pointer just below the aligned address, instead of calling the
/// aligned operator new: glibc's aligned allocation splits small fragments
/// off every block, and a loop that allocates and frees multi-MB blocks —
/// a Build + Preprocess rebuild cycle — then grows its heap every cycle.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr size_t kAlignment = 64;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    size_t space = bytes + kAlignment;
    void* base = ::operator new(space + sizeof(void*));
    void* aligned = static_cast<void**>(base) + 1;
    std::align(kAlignment, bytes, aligned, space);  // one line of slack
    static_cast<void**>(aligned)[-1] = base;
    return static_cast<T*>(aligned);
  }
  void deallocate(T* p, size_t) {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

/// A block of B equally-sized column vectors — the multivector operand of
/// the blocked propagation kernels (Graph's gather, the frontier scatter).
///
/// Layout: viewed as the B×n matrix whose rows are the B vectors, storage is
/// column-major — the B entries belonging to one graph node (one "block
/// row") are contiguous at data()[r·B .. r·B+B).  This is the layout the
/// SpMM sweep wants: each CSR edge touches one contiguous block row per
/// operand, so the inner loop over the B right-hand sides is a unit-stride
/// run that amortizes the (index, value) traversal across the whole batch.
///
/// The value type V is the storage precision tier: DenseBlock (double) is
/// the historical multivector, DenseBlockF (float) halves the block's bytes
/// for the fp32 propagation path.  DenseBlockT deliberately mirrors how
/// std::vector<V> is used for single score vectors (see vector_ops.h for
/// the blocked BLAS-1 helpers); DenseMatrix remains the general row-major
/// container of the block-elimination solvers.
template <typename V>
class DenseBlockT {
 public:
  using value_type = V;

  DenseBlockT() : rows_(0), num_vectors_(0) {}

  /// rows × num_vectors block, zero-initialized.
  DenseBlockT(size_t rows, size_t num_vectors)
      : rows_(rows),
        num_vectors_(num_vectors),
        data_(rows * num_vectors, V{0}) {}

  /// Number of entries per vector (graph nodes).
  size_t rows() const { return rows_; }
  /// Number of vectors in the block (batch size B).
  size_t num_vectors() const { return num_vectors_; }

  V& At(size_t row, size_t vec) { return data_[row * num_vectors_ + vec]; }
  V At(size_t row, size_t vec) const {
    return data_[row * num_vectors_ + vec];
  }

  /// The contiguous B entries of one block row (one entry per vector).
  V* RowPtr(size_t row) { return data_.data() + row * num_vectors_; }
  const V* RowPtr(size_t row) const {
    return data_.data() + row * num_vectors_;
  }

  /// Reshapes to rows × num_vectors without initializing the contents
  /// (kernel-internal; kernels overwrite or zero explicitly).
  void Resize(size_t rows, size_t num_vectors) {
    rows_ = rows;
    num_vectors_ = num_vectors;
    data_.resize(rows * num_vectors);
  }

  /// Sets every entry to zero (keeps capacity).
  void SetZero();

  /// Copies vector `vec` out into a standalone dense vector.
  std::vector<V> ExtractVector(size_t vec) const;

  /// Overwrites vector `vec` from a dense vector of length rows().
  void SetVector(size_t vec, const std::vector<V>& values);

  size_t SizeBytes() const { return data_.size() * sizeof(V); }

  void swap(DenseBlockT& other) noexcept {
    std::swap(rows_, other.rows_);
    std::swap(num_vectors_, other.num_vectors_);
    data_.swap(other.data_);
  }

 private:
  size_t rows_;
  size_t num_vectors_;
  // Block row r at data_[r·num_vectors_]; cache-line aligned base.
  std::vector<V, CacheAlignedAllocator<V>> data_;
};

/// The fp64 multivector every pre-precision-tier caller already uses.
using DenseBlock = DenseBlockT<double>;
/// The fp32 tier: same layout, half the bytes per block row.
using DenseBlockF = DenseBlockT<float>;

/// Widens (or narrows) a block between precision tiers, element by element.
/// The destination is reshaped to match.
template <typename To, typename From>
void ConvertBlock(const DenseBlockT<From>& from, DenseBlockT<To>& to) {
  to.Resize(from.rows(), from.num_vectors());
  const size_t n = from.rows() * from.num_vectors();
  const From* src = from.RowPtr(0);
  To* dst = to.RowPtr(0);
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<To>(src[i]);
}

extern template class DenseBlockT<double>;
extern template class DenseBlockT<float>;

}  // namespace tpa::la

#endif  // TPA_LA_DENSE_BLOCK_H_

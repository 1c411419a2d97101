#ifndef TPA_LA_VECTOR_OPS_H_
#define TPA_LA_VECTOR_OPS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "la/dense_block.h"
#include "util/check.h"

namespace tpa::la {

/// BLAS-1 style kernels over std::vector<V>.  All score vectors in the
/// library (RWR vectors, CPI interim vectors, residuals) use this
/// representation; keeping the kernels in one place makes the cost model of
/// every method explicit.
///
/// Every kernel is templated over the storage precision tier V ∈ {float,
/// double}.  Scalars (alpha, norms, dot products) stay double at every
/// tier, so per-element arithmetic runs in fp64 and rounds to V exactly
/// once on store — the V = double instantiation is bitwise-identical to the
/// historical all-double kernels.

/// y += alpha * x.  Sizes must match.
template <typename V>
void Axpy(double alpha, const std::vector<V>& x, std::vector<V>& y) {
  TPA_DCHECK(x.size() == y.size());
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// x *= alpha.
template <typename V>
void Scale(double alpha, std::vector<V>& x) {
  for (V& v : x) v *= alpha;
}

/// Dot product <x, y>, accumulated in fp64.  Sizes must match.
template <typename V>
double Dot(const std::vector<V>& x, const std::vector<V>& y) {
  TPA_DCHECK(x.size() == y.size());
  double sum = 0.0;
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return sum;
}

/// L1 norm: sum of |x_i|, accumulated in fp64.
template <typename V>
double NormL1(const std::vector<V>& x) {
  double sum = 0.0;
  for (V v : x) sum += std::abs(static_cast<double>(v));
  return sum;
}

/// L2 (Euclidean) norm.
template <typename V>
double NormL2(const std::vector<V>& x) {
  return std::sqrt(Dot(x, x));
}

/// Max (infinity) norm.
template <typename V>
double NormInf(const std::vector<V>& x) {
  double best = 0.0;
  for (V v : x) best = std::max(best, std::abs(static_cast<double>(v)));
  return best;
}

/// ‖x − y‖₁; the paper's error metric.  Sizes must match.  The two operands
/// may live at different precision tiers (fp32 result vs fp64 oracle);
/// differences are taken in fp64 either way.
template <typename A, typename B>
double L1Distance(const std::vector<A>& x, const std::vector<B>& y) {
  TPA_DCHECK(x.size() == y.size());
  double sum = 0.0;
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) {
    sum += std::abs(static_cast<double>(x[i]) - static_cast<double>(y[i]));
  }
  return sum;
}

/// Sets all entries to zero (keeps capacity).
template <typename V>
void SetZero(std::vector<V>& x) {
  std::fill(x.begin(), x.end(), V{0});
}

/// Returns the indices of the k largest entries, in decreasing value order
/// (ties broken by smaller index first).  k is clamped to x.size().
template <typename V>
std::vector<size_t> TopKIndices(const std::vector<V>& x, size_t k) {
  k = std::min(k, x.size());
  std::vector<size_t> idx(x.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto better = [&x](size_t a, size_t b) {
    if (x[a] != x[b]) return x[a] > x[b];
    return a < b;
  };
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k), idx.end(),
                    better);
  idx.resize(k);
  return idx;
}

/// Converts a score vector between precision tiers (widening is exact;
/// narrowing rounds each element once).
template <typename To, typename From>
std::vector<To> ConvertVector(const std::vector<From>& x) {
  std::vector<To> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = static_cast<To>(x[i]);
  return out;
}

/// Blocked BLAS-1 helpers over DenseBlockT multivectors.  Each applies the
/// scalar kernel above to every vector of the block with identical
/// per-element arithmetic, so vector b of a blocked result is
/// bitwise-identical to the scalar op run on vector b alone.

/// X *= alpha.
template <typename V>
void BlockScale(double alpha, DenseBlockT<V>& x) {
  const size_t n = x.rows() * x.num_vectors();
  V* xs = x.RowPtr(0);
  for (size_t i = 0; i < n; ++i) xs[i] *= alpha;
}

/// Adds one shared vector to every vector of the block:
/// Y[·][b] += alpha * v for all b.  Requires v.size() == y.rows().
template <typename V>
void BlockAddVector(double alpha, const std::vector<V>& v,
                    DenseBlockT<V>& y) {
  TPA_DCHECK(v.size() == y.rows());
  const size_t num_vectors = y.num_vectors();
  for (size_t r = 0; r < v.size(); ++r) {
    const double add = alpha * v[r];
    V* yr = y.RowPtr(r);
    for (size_t b = 0; b < num_vectors; ++b) yr[b] += add;
  }
}

}  // namespace tpa::la

#endif  // TPA_LA_VECTOR_OPS_H_

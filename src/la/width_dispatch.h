#ifndef TPA_LA_WIDTH_DISPATCH_H_
#define TPA_LA_WIDTH_DISPATCH_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace tpa::la {

/// Invokes `fixed.template operator()<kWidth>(col, stride)`.  A one-slab
/// block gets its row stride as a std::integral_constant, so the kernel's
/// row addressing is a shift or lea instead of a multiply on its index
/// chain; the slabs of a wider block get it as a size_t.
template <size_t kWidth, typename Fixed>
void RunSlab(size_t col, size_t stride, Fixed& fixed) {
  if (stride == kWidth) {
    return fixed.template operator()<kWidth>(
        col, std::integral_constant<size_t, kWidth>{});
  }
  fixed.template operator()<kWidth>(col, stride);
}

/// RunSlab<W> for W == width, 1 ≤ W ≤ 16.
template <typename Fixed>
void DispatchSlab(size_t width, size_t col, size_t stride, Fixed& fixed) {
  switch (width) {
    case 1: return RunSlab<1>(col, stride, fixed);
    case 2: return RunSlab<2>(col, stride, fixed);
    case 3: return RunSlab<3>(col, stride, fixed);
    case 4: return RunSlab<4>(col, stride, fixed);
    case 5: return RunSlab<5>(col, stride, fixed);
    case 6: return RunSlab<6>(col, stride, fixed);
    case 7: return RunSlab<7>(col, stride, fixed);
    case 8: return RunSlab<8>(col, stride, fixed);
    case 9: return RunSlab<9>(col, stride, fixed);
    case 10: return RunSlab<10>(col, stride, fixed);
    case 11: return RunSlab<11>(col, stride, fixed);
    case 12: return RunSlab<12>(col, stride, fixed);
    case 13: return RunSlab<13>(col, stride, fixed);
    case 14: return RunSlab<14>(col, stride, fixed);
    case 15: return RunSlab<15>(col, stride, fixed);
    default: return RunSlab<16>(col, stride, fixed);
  }
}

/// Runs a blocked kernel as column slabs of a compile-time width, so its
/// inner loop over the B right-hand sides unrolls and vectorizes: invokes
/// `fixed.template operator()<W>(col, stride)` for col = 0, 16, 32, …
/// below num_vectors, with W = min(16, num_vectors − col) and stride (the
/// block's row length) = num_vectors (see RunSlab).  A block of up to 16
/// columns (every group size the engine dispatches by default) is one
/// slab.  The kernels' arithmetic is per column, so a slab computes each of
/// its columns exactly as a whole-width pass would.
template <typename Fixed>
void DispatchWidth(size_t num_vectors, Fixed&& fixed) {
  for (size_t col = 0; col < num_vectors; col += 16) {
    DispatchSlab(std::min<size_t>(num_vectors - col, 16), col, num_vectors,
                 fixed);
  }
}

}  // namespace tpa::la

#endif  // TPA_LA_WIDTH_DISPATCH_H_

#ifndef TPA_LA_PRECISION_H_
#define TPA_LA_PRECISION_H_

#include <cstddef>
#include <string_view>

namespace tpa::la {

/// Value-precision tier of the propagation stack.  It selects the storage
/// type of every value the hot loops stream — CSR edge weights, CPI interim
/// vectors, DenseBlock multivectors, cached score vectors (see CsrMatrixT
/// for the kernels' arithmetic contract).  kFloat64 is the default and is
/// bitwise-identical to the historical all-double pipeline;
/// kFloat32 halves the value bytes per edge and per cached entry, trading a
/// rounding error that is orders of magnitude below the approximation
/// error TPA already accepts (the accuracy-envelope tests pin this).
enum class Precision {
  kFloat64,
  kFloat32,
};

/// Storage bytes of one value at the given tier.
constexpr size_t PrecisionValueBytes(Precision precision) {
  return precision == Precision::kFloat64 ? sizeof(double) : sizeof(float);
}

/// Display name ("fp64" / "fp32") for tables and benchmark JSON.
constexpr std::string_view PrecisionName(Precision precision) {
  return precision == Precision::kFloat64 ? "fp64" : "fp32";
}

}  // namespace tpa::la

#endif  // TPA_LA_PRECISION_H_

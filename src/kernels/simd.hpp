// Provenance report for the 8-bit kernel path.
//
// The 8-bit formats run the scalar LUT kernels (kernels/accel.hpp,
// kernels/vector_ops.hpp) and the SELL-8 SpMV (kernels/spmv.hpp), both
// plain portable code with no ISA dispatch. Benchmarks still record which
// instruction set the kernels ran on; this header answers that question,
// and the answer is always "scalar".
#pragma once

namespace mfla {
namespace kernels {

/// What the 8-bit kernels dispatch to.
struct SimdCaps {
  const char* isa;  ///< "scalar": there is no vector rung
};

[[nodiscard]] constexpr SimdCaps simd_caps() noexcept { return SimdCaps{"scalar"}; }

}  // namespace kernels
}  // namespace mfla

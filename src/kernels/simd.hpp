// Provenance report for the kernel path.
//
// The kernels (kernels/vector_ops.hpp, kernels/spmv.hpp) and the resident
// grids (arith/on_grid.hpp) are plain portable code with no ISA dispatch.
// e2ebench still records which instruction set the kernels ran on; this
// header answers that question, and the answer is always "scalar".
#pragma once

namespace mfla {
namespace kernels {

/// What the kernels dispatch to.
struct SimdCaps {
  const char* isa;  ///< "scalar": there is no vector rung
};

[[nodiscard]] constexpr SimdCaps simd_caps() noexcept { return SimdCaps{"scalar"}; }

}  // namespace kernels
}  // namespace mfla

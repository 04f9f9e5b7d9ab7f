// Provenance constant for the 8-bit tables.
//
// The kernels (kernels/vector_ops.hpp, kernels/spmv.hpp) have one body per
// operation, written with plain + and * over whatever scalar they are
// given. The 8-bit formats' whole-operation tables (arith/lut8.hpp) are
// read by the 8-bit resident grid (arith/on_grid.hpp) only, and it always
// reads them; e2ebench records this constant in its provenance line.
#pragma once

namespace mfla {
namespace kernels {

/// Are the 8-bit tables in use? Always: the byte grid is the tables.
[[nodiscard]] constexpr bool lut_enabled() noexcept { return true; }

}  // namespace kernels
}  // namespace mfla

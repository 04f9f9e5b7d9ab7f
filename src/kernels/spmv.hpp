// Sparse matrix–vector product over CSR storage.
//
// The matvec accumulates in the working format T — this is the central
// kernel whose low-precision behavior the study measures. Like the dense
// kernels in vector_ops.hpp it has one body, written with plain + and *.
//
// A resident solve (core/krylov_schur.hpp) runs it over OnGrid<T> on the
// matrix's values converted to the grid once per solve; over an emulated T
// itself (CsrMatrix<T>::matvec, and operators the solver applies in T) it
// runs that format's exact engine.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfla {
namespace kernels {

/// y := A x for CSR (row_ptr, col_idx, values), accumulated in T row by
/// row, in ascending k, from zero.
template <typename T>
void spmv(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
          const T* values, const T* x, T* y) noexcept {
  const T zero(0);
  for (std::size_t i = 0; i < rows; ++i) {
    T acc = zero;
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      acc = acc + values[k] * x[col_idx[k]];
    }
    y[i] = acc;
  }
}

}  // namespace kernels
}  // namespace mfla

// Sparse matrix–vector product over CSR storage.
//
// The matvec accumulates in the working format T — this is the central
// kernel whose low-precision behavior the study measures. Like the dense
// kernels in vector_ops.hpp it is written once against a scalar-operation
// policy: kernels::spmv over T takes the bit-identical LUT fast paths from
// kernels/accel.hpp for the <=16-bit formats, everything else runs the
// exact engines.
//
// A resident solve (core/krylov_schur.hpp) runs the same loop,
// detail::spmv_impl, over OnGrid<T> on the matrix's values converted to
// the grid once per solve, so its SpMV never reaches the T policies here:
// kernels::spmv over T serves CsrMatrix<T>::matvec for its direct callers
// and for operators the solver applies in T.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/accel.hpp"

namespace mfla {
namespace kernels {

namespace detail {

template <typename T, class Ops>
void spmv_impl(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
               const T* values, const T* x, T* y, const Ops& ops) noexcept {
  const T zero(0);
  for (std::size_t i = 0; i < rows; ++i) {
    T acc = zero;
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      acc = ops.add(acc, ops.mul(values[k], x[col_idx[k]]));
    }
    y[i] = acc;
  }
}

}  // namespace detail

namespace ref {

template <typename T>
void spmv(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
          const T* values, const T* x, T* y) noexcept {
  detail::spmv_impl(rows, row_ptr, col_idx, values, x, y, accel::NativeOps<T>{});
}

}  // namespace ref

/// y := A x for CSR (row_ptr, col_idx, values), accumulated in T.
template <typename T>
void spmv(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
          const T* values, const T* x, T* y) {
  accel::with_ops<T>(
      [&](const auto& ops) { detail::spmv_impl(rows, row_ptr, col_idx, values, x, y, ops); });
}

}  // namespace kernels
}  // namespace mfla

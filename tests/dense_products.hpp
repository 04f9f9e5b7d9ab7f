// Dense matrix products for the tests that check factorizations
// (A Q = Q T, Q^T Q = I): plain loops accumulating in T. No solve needs a
// general product, so they live here rather than among the kernels.
#pragma once

#include <cstddef>

#include "dense/matrix.hpp"
#include "kernels/vector_ops.hpp"

namespace mfla {

/// C := A * B.
template <typename T>
[[nodiscard]] DenseMatrix<T> matmul(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  DenseMatrix<T> c(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t l = 0; l < k; ++l) {
      const T blj = b(l, j);
      const T* acol = a.col(l);
      T* ccol = c.col(j);
      for (std::size_t i = 0; i < m; ++i) ccol[i] = ccol[i] + acol[i] * blj;
    }
  }
  return c;
}

/// C := A^T * B.
template <typename T>
[[nodiscard]] DenseMatrix<T> matmul_tn(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  DenseMatrix<T> c(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) c(i, j) = kernels::dot(k, a.col(i), b.col(j));
  return c;
}

}  // namespace mfla

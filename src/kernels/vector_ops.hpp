// BLAS-style kernels, templated over the scalar type.
//
// These are the kernels whose low-precision behavior the paper studies:
// accumulation happens in the working format T (no hidden wide
// accumulators), so overflow/rounding effects are exactly those of the
// format under evaluation.
//
// Each kernel has one body, written with plain + and * over the scalar it
// is given. Production solves run it over OnGrid<T> for every emulated
// format (arith/on_grid.hpp) and over float, double, dd and float128
// otherwise; over an emulated T itself it runs that format's exact engine.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "dense/matrix.hpp"

namespace mfla {
namespace kernels {

/// Σ x[i] * y[i], accumulated in T from zero in ascending i.
template <typename T>
[[nodiscard]] T dot(std::size_t n, const T* x, const T* y) noexcept {
  T acc(0);
  for (std::size_t i = 0; i < n; ++i) acc = acc + x[i] * y[i];
  return acc;
}

template <typename T>
[[nodiscard]] T nrm2(std::size_t n, const T* x) noexcept {
  // Unqualified call: resolves to the mfla:: overload for native floats and
  // via ADL for the emulated formats and OnGrid<T>.
  return sqrt(dot(n, x, x));
}

/// y := y + alpha * x.
template <typename T>
void axpy(std::size_t n, T alpha, const T* x, T* y) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + alpha * x[i];
}

/// x := x * alpha.
template <typename T>
void scal(std::size_t n, T alpha, T* x) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] * alpha;
}

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
    for (std::size_t i = 0; i < m; ++i) c(i, j) = dot(k, a.col(i), b.col(j));
  return c;
}

/// Update the leading `keep` columns of V in place: V[:, :keep] := V * W,
/// reading w(l, j) for l < wrows, j < keep only (W may be larger; this
/// avoids materializing top_left views). V * W accumulates in `scratch`,
/// which is resized/zeroed here and then copied back; recycling it across
/// restarts makes the basis update allocation-free at steady state.
template <typename T>
void update_basis(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t wrows,
                  std::size_t keep, std::vector<T>& scratch) {
  const std::size_t n = v.rows();
  scratch.assign(n * keep, T(0));
  for (std::size_t j = 0; j < keep; ++j) {
    T* out = scratch.data() + j * n;
    for (std::size_t l = 0; l < wrows; ++l) {
      const T wlj = w(l, j);
      const T* vcol = v.col(l);
      for (std::size_t i = 0; i < n; ++i) out[i] = out[i] + vcol[i] * wlj;
    }
  }
  for (std::size_t j = 0; j < keep; ++j) {
    T* dst = v.col(j);
    const T* src = scratch.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

}  // namespace kernels
}  // namespace mfla

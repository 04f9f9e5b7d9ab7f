// BLAS-style kernels, templated over the scalar type.
//
// These are the kernels whose low-precision behavior the paper studies:
// accumulation happens in the working format T (no hidden wide
// accumulators), so overflow/rounding effects are exactly those of the
// format under evaluation.
//
// Every kernel body is written once against a scalar-operation policy and
// dispatched through kernels::accel::with_ops: native floats and the
// 32/64-bit emulated formats run the plain loops, while the ≤16-bit
// formats take the bit-identical LUT fast paths (see kernels/accel.hpp).
// kernels::ref:: always runs the exact engines regardless of the LUT
// switch — it is the reference the fast paths are tested and benchmarked
// against.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "dense/matrix.hpp"
#include "kernels/accel.hpp"

namespace mfla {
namespace kernels {

namespace detail {

template <typename T, class Ops>
[[nodiscard]] T dot_impl(std::size_t n, const T* x, const T* y, const Ops& ops) noexcept {
  T acc(0);
  for (std::size_t i = 0; i < n; ++i) acc = ops.add(acc, ops.mul(x[i], y[i]));
  return acc;
}

template <typename T, class Ops>
void axpy_impl(std::size_t n, T alpha, const T* x, T* y, const Ops& ops) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] = ops.add(y[i], ops.mul(alpha, x[i]));
}

template <typename T, class Ops>
void scal_impl(std::size_t n, T alpha, T* x, const Ops& ops) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = ops.mul(x[i], alpha);
}

template <typename T, class Ops>
[[nodiscard]] DenseMatrix<T> matmul_impl(const DenseMatrix<T>& a, const DenseMatrix<T>& b,
                                         const Ops& ops) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  DenseMatrix<T> c(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t l = 0; l < k; ++l) {
      const T blj = b(l, j);
      const T* acol = a.col(l);
      T* ccol = c.col(j);
      for (std::size_t i = 0; i < m; ++i) ccol[i] = ops.add(ccol[i], ops.mul(acol[i], blj));
    }
  }
  return c;
}

template <typename T, class Ops>
[[nodiscard]] DenseMatrix<T> matmul_tn_impl(const DenseMatrix<T>& a, const DenseMatrix<T>& b,
                                            const Ops& ops) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  DenseMatrix<T> c(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) c(i, j) = dot_impl(k, a.col(i), b.col(j), ops);
  return c;
}

/// Core of update_basis: reads w(l, j) for l < wrows, j < keep (so callers
/// can pass a taller matrix and use only its leading block, without the
/// top_left copy), accumulates V * W into `scratch` and copies back.
/// `scratch` is resized/zeroed here; recycling it across restarts makes the
/// basis update allocation-free at steady state.
template <typename T, class Ops>
void update_basis_impl(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t wrows,
                       std::size_t keep, std::vector<T>& scratch, const Ops& ops) {
  const std::size_t n = v.rows();
  scratch.assign(n * keep, T(0));
  for (std::size_t j = 0; j < keep; ++j) {
    T* out = scratch.data() + j * n;
    for (std::size_t l = 0; l < wrows; ++l) {
      const T wlj = w(l, j);
      const T* vcol = v.col(l);
      for (std::size_t i = 0; i < n; ++i) out[i] = ops.add(out[i], ops.mul(vcol[i], wlj));
    }
  }
  for (std::size_t j = 0; j < keep; ++j) {
    T* dst = v.col(j);
    const T* src = scratch.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

}  // namespace detail

// -- Reference path: always the exact engines ------------------------------

namespace ref {

template <typename T>
[[nodiscard]] T dot(std::size_t n, const T* x, const T* y) noexcept {
  return detail::dot_impl(n, x, y, accel::NativeOps<T>{});
}

template <typename T>
[[nodiscard]] T nrm2(std::size_t n, const T* x) noexcept {
  // Unqualified call: resolves to the mfla:: overload for native floats and
  // via ADL for the emulated formats.
  return sqrt(dot(n, x, x));
}

template <typename T>
void axpy(std::size_t n, T alpha, const T* x, T* y) noexcept {
  detail::axpy_impl(n, alpha, x, y, accel::NativeOps<T>{});
}

template <typename T>
void scal(std::size_t n, T alpha, T* x) noexcept {
  detail::scal_impl(n, alpha, x, accel::NativeOps<T>{});
}

}  // namespace ref

// -- Dispatching kernels ----------------------------------------------------

template <typename T>
[[nodiscard]] T dot(std::size_t n, const T* x, const T* y) {
  return accel::with_ops<T>([&](const auto& ops) { return detail::dot_impl(n, x, y, ops); });
}

template <typename T>
[[nodiscard]] T nrm2(std::size_t n, const T* x) {
  return sqrt(dot(n, x, x));
}

template <typename T>
void axpy(std::size_t n, T alpha, const T* x, T* y) {
  accel::with_ops<T>([&](const auto& ops) { detail::axpy_impl(n, alpha, x, y, ops); });
}

template <typename T>
void scal(std::size_t n, T alpha, T* x) {
  accel::with_ops<T>([&](const auto& ops) { detail::scal_impl(n, alpha, x, ops); });
}

/// C := A * B.
template <typename T>
[[nodiscard]] DenseMatrix<T> matmul(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  return accel::with_ops<T>([&](const auto& ops) { return detail::matmul_impl(a, b, ops); });
}

/// C := A^T * B.
template <typename T>
[[nodiscard]] DenseMatrix<T> matmul_tn(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  return accel::with_ops<T>([&](const auto& ops) { return detail::matmul_tn_impl(a, b, ops); });
}

/// Update the leading `keep` columns of V in place: V[:, :keep] := V * W,
/// where only W's leading wrows x keep block participates (W may be larger;
/// this avoids materializing top_left views). `scratch` is recycled across
/// calls — the steady-state path allocates nothing.
template <typename T>
void update_basis(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t wrows,
                  std::size_t keep, std::vector<T>& scratch) {
  accel::with_ops<T>(
      [&](const auto& ops) { detail::update_basis_impl(v, w, wrows, keep, scratch, ops); });
}

}  // namespace kernels
}  // namespace mfla

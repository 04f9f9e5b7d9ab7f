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
//
// The two Krylov basis kernels, mgs_pass and update_basis, reorder their
// loops for speed without reordering any element's arithmetic: every
// output element gets the operations of the plain loop (dot, then axpy,
// per Gram–Schmidt column; V * W one column at a time), on the same
// operands, in the same order, so the results are bit for bit the plain
// loop's for every scalar.
#pragma once

#include <algorithm>
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

/// Rows per chunk of mgs_pass: each chunk's axpy runs before the next
/// column's dot over the same rows, so one chunk's dot chain overlaps the
/// next chunk's axpy while the chunk stays short enough to vectorize.
inline constexpr std::size_t kMgsChunkRows = 16;

/// One modified Gram–Schmidt pass of w against the first `cols` columns of
/// v. Per column j, in order: c = dot(v_j, w); h[j] += c; axpy(-c, v_j, w).
/// Returns nrm2(w) of the result. The sweep is fused: within each chunk of
/// rows, w[i] = w[i] + (-c) * v_j[i] is followed by the accumulation of
/// v_{j+1}[i] * w[i] (w[i] * w[i] after the last column), which is the
/// next dot's term i on the updated w[i]. Every dot still accumulates from
/// zero in ascending i and every axpy sees its whole coefficient, so w, h
/// and the norm are those of the unfused loop, bit for bit.
template <typename T>
[[nodiscard]] T mgs_pass(const DenseMatrix<T>& v, std::size_t cols, T* w, T* h) noexcept {
  const std::size_t n = v.rows();
  T c = dot(n, cols > 0 ? v.col(0) : w, w);
  for (std::size_t j = 0; j < cols; ++j) {
    h[j] += c;
    const T alpha = -c;
    const T* x = v.col(j);
    const T* next = j + 1 < cols ? v.col(j + 1) : w;
    T acc(0);
    for (std::size_t i0 = 0; i0 < n; i0 += kMgsChunkRows) {
      const std::size_t i1 = std::min(n, i0 + kMgsChunkRows);
      for (std::size_t i = i0; i < i1; ++i) w[i] = w[i] + alpha * x[i];
      for (std::size_t i = i0; i < i1; ++i) acc = acc + next[i] * w[i];
    }
    c = acc;
  }
  // Unqualified, as in nrm2.
  return sqrt(c);
}

/// Rows per tile and output columns per sweep of update_basis: a tile of
/// kBasisBlockCols output columns stays in cache while each of V's columns
/// streams past it once.
inline constexpr std::size_t kBasisTileRows = 512;
inline constexpr std::size_t kBasisBlockCols = 4;

namespace detail {

/// out_b[i] = out_b[i] + v(i, l) * w(l, j + b) for the B output columns
/// out_b = out + b * n, l < wrows in ascending l, i in [i0, i1): the
/// column-at-a-time update's terms, in its order.
template <std::size_t B, typename T>
void accumulate_columns(const DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t wrows,
                        std::size_t j, std::size_t i0, std::size_t i1, T* out) noexcept {
  const std::size_t n = v.rows();
  for (std::size_t l = 0; l < wrows; ++l) {
    T wl[B];
    for (std::size_t b = 0; b < B; ++b) wl[b] = w(l, j + b);
    const T* vcol = v.col(l);
    for (std::size_t i = i0; i < i1; ++i) {
      const T vi = vcol[i];
      for (std::size_t b = 0; b < B; ++b) out[b * n + i] = out[b * n + i] + vi * wl[b];
    }
  }
}

}  // namespace detail

/// Update the leading `keep` columns of V in place: V[:, :keep] := V * W,
/// reading w(l, j) for l < wrows, j < keep only (W may be larger; this
/// avoids materializing top_left views). V * W accumulates in `scratch`,
/// which is resized/zeroed here and then copied back; recycling it across
/// restarts makes the basis update allocation-free at steady state.
/// Each out(i, j) is 0 + v(i, 0) w(0, j) + v(i, 1) w(1, j) + ..., summed in
/// ascending l; the rows go in tiles of kBasisTileRows and the columns in
/// blocks of kBasisBlockCols per sweep of V (the last keep % kBasisBlockCols
/// one at a time), which changes no sum.
template <typename T>
void update_basis(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t wrows,
                  std::size_t keep, std::vector<T>& scratch) {
  const std::size_t n = v.rows();
  scratch.assign(n * keep, T(0));
  for (std::size_t i0 = 0; i0 < n; i0 += kBasisTileRows) {
    const std::size_t i1 = std::min(n, i0 + kBasisTileRows);
    std::size_t j = 0;
    for (; j + kBasisBlockCols <= keep; j += kBasisBlockCols)
      detail::accumulate_columns<kBasisBlockCols>(v, w, wrows, j, i0, i1, scratch.data() + j * n);
    for (; j < keep; ++j)
      detail::accumulate_columns<1>(v, w, wrows, j, i0, i1, scratch.data() + j * n);
  }
  for (std::size_t j = 0; j < keep; ++j) {
    T* dst = v.col(j);
    const T* src = scratch.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

}  // namespace kernels
}  // namespace mfla

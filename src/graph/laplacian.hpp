// Graph preprocessing pipeline (paper §2.1):
//   1. squarify      — crop a removable zero block, or pad, so the
//                      adjacency matrix is square;
//   2. symmetrize    — average symmetrization A ↦ (A + Aᵀ)/2;
//   3. normalized Laplacian (Eq. 1):
//        L_ii = 1                        if deg(i) > 0
//        L_ij = -A_ij / sqrt(deg_i deg_j) if i != j and A_ij != 0
//        L_ij = 0                         otherwise,
//      with deg(i) = Σ_j A_ij.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sparse/coo.hpp"

namespace mfla {

namespace detail {

/// Side of the square matrix squarify() makes of `a`.
[[nodiscard]] inline std::size_t square_side(const CooMatrix& a) {
  if (a.rows() == a.cols()) return a.rows();
  const std::size_t small = a.rows() < a.cols() ? a.rows() : a.cols();
  const std::size_t big = a.rows() < a.cols() ? a.cols() : a.rows();
  for (const auto& t : a.triplets()) {
    if (t.row >= small || t.col >= small) return big;
  }
  return small;
}

/// (A + Aᵀ)/2 of `a` taken as a rows x cols matrix. Each output entry is
/// the sum of at most two halves, h(i, j) + h(j, i), and a sum of two is
/// commutative, so this equals halving every triplet into both positions
/// and calling compress(); zero halves and zero sums are dropped as add()
/// and compress() drop them. Uncompressed input has its halves compressed
/// first.
[[nodiscard]] inline CooMatrix symmetrize_average(const CooMatrix& a, std::size_t rows,
                                                  std::size_t cols) {
  CooMatrix h(rows, cols);
  h.reserve(a.nnz());
  for (const auto& t : a.triplets()) h.add(t.row, t.col, 0.5 * t.value);
  if (!h.is_compressed()) h.compress();
  const CooMatrix ht = h.transposed();
  // Merge the two sorted triplet lists, summing where positions meet.
  const auto key = [](const Triplet& t) {
    return (static_cast<std::uint64_t>(t.row) << 32) | t.col;
  };
  const std::vector<Triplet>& x = h.triplets();
  const std::vector<Triplet>& y = ht.triplets();
  CooMatrix s(rows, cols);
  s.reserve(x.size() + y.size());
  std::size_t i = 0, j = 0;
  while (i < x.size() || j < y.size()) {
    if (j == y.size() || (i < x.size() && key(x[i]) < key(y[j]))) {
      s.add(x[i].row, x[i].col, x[i].value);
      ++i;
    } else if (i == x.size() || key(y[j]) < key(x[i])) {
      s.add(y[j].row, y[j].col, y[j].value);
      ++j;
    } else {
      s.add(x[i].row, x[i].col, x[i].value + y[j].value);
      ++i;
      ++j;
    }
  }
  return s;
}

}  // namespace detail

/// Make the adjacency matrix square. If all entries beyond the smaller
/// dimension are zero the zero block is cropped; otherwise the matrix is
/// padded with a zero block (paper §2.1).
[[nodiscard]] inline CooMatrix squarify(const CooMatrix& a) {
  CooMatrix out = a;
  const std::size_t n = detail::square_side(a);
  out.set_shape(n, n);
  return out;
}

/// Average symmetrization A ↦ (A + Aᵀ)/2.
[[nodiscard]] inline CooMatrix symmetrize_average(const CooMatrix& a) {
  return detail::symmetrize_average(a, a.rows(), a.cols());
}

/// Weighted vertex degrees deg(i) = Σ_j A_ij of a symmetric adjacency,
/// summed in triplet order (row-major, ascending column once compressed).
[[nodiscard]] inline std::vector<double> vertex_degrees(const CooMatrix& a) {
  std::vector<double> deg(a.rows(), 0.0);
  for (const auto& t : a.triplets()) deg[t.row] += t.value;
  return deg;
}

/// Symmetrically normalized Laplacian of a symmetric adjacency matrix.
/// One pass in triplet order, with each unit diagonal entry emitted just
/// before the first triplet past it, so compressed input gives compressed
/// output; otherwise the result is compressed, which sums the same terms.
[[nodiscard]] inline CooMatrix normalized_laplacian(const CooMatrix& adj) {
  const std::vector<double> deg = vertex_degrees(adj);
  CooMatrix l(adj.rows(), adj.cols());
  l.reserve(adj.nnz() + adj.rows());
  const std::size_t n = adj.rows();
  std::uint32_t d = 0;  // the next diagonal position
  // Emit the unit diagonal entries at positions up to (row, col).
  const auto diagonal_through = [&](std::uint32_t row, std::uint32_t col) {
    for (; d < n && (d < row || (d == row && d <= col)); ++d) {
      if (deg[d] > 0.0) l.add(d, d, 1.0);
    }
  };
  for (const auto& t : adj.triplets()) {
    diagonal_through(t.row, t.col);
    if (t.row == t.col) continue;  // self-loops only contribute to degrees
    const double dd = deg[t.row] * deg[t.col];
    if (dd <= 0.0) continue;
    l.add(t.row, t.col, -t.value / std::sqrt(dd));
  }
  diagonal_through(UINT32_MAX, UINT32_MAX);
  if (!l.is_compressed()) l.compress();
  return l;
}

/// Full pipeline: raw (possibly rectangular, directed) adjacency to the
/// symmetrized normalized Laplacian. The square shape is passed on rather
/// than copying `raw` to set it.
[[nodiscard]] inline CooMatrix graph_laplacian_pipeline(const CooMatrix& raw) {
  const std::size_t n = detail::square_side(raw);
  return normalized_laplacian(detail::symmetrize_average(raw, n, n));
}

}  // namespace mfla

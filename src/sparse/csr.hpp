// Compressed sparse row matrix, templated over the scalar type.
//
// The matvec delegates to kernels::spmv, which accumulates in the working
// format T — this is the central kernel whose low-precision behavior the
// study measures. A resident solve of an emulated format does not call it:
// partialschur/lanczos_eigs apply a CsrMatrix<T> through
// detail::ResidentOp (core/krylov_schur.hpp), which runs kernels::spmv
// over the values converted to OnGrid<T>, bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arith/traits.hpp"
#include "kernels/spmv.hpp"
#include "sparse/coo.hpp"

namespace mfla {

template <typename T>
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// CSR of `coo` compressed; triplets that already are (the output of
  /// compress() or of the graph pipeline) are read in place.
  [[nodiscard]] static CsrMatrix from_coo(const CooMatrix& coo) {
    if (!coo.is_compressed()) {
      CooMatrix c = coo;
      c.compress();
      return from_coo(c);
    }
    CsrMatrix m;
    m.rows_ = coo.rows();
    m.cols_ = coo.cols();
    m.row_ptr_.assign(m.rows_ + 1, 0);
    m.col_idx_.reserve(coo.nnz());
    m.values_.reserve(coo.nnz());
    for (const auto& t : coo.triplets()) ++m.row_ptr_[t.row + 1];
    for (std::size_t i = 0; i < m.rows_; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
    for (const auto& t : coo.triplets()) {
      m.col_idx_.push_back(t.col);
      m.values_.push_back(NumTraits<T>::from_double(t.value));
    }
    return m;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }
  [[nodiscard]] const std::vector<std::uint32_t>& row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] const std::vector<std::uint32_t>& col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] const std::vector<T>& values() const noexcept { return values_; }
  /// Explicit mutable access to the values (the pattern stays fixed).
  [[nodiscard]] std::vector<T>& mutable_values() noexcept { return values_; }

  /// y := A x, accumulated in T (kernels/spmv.hpp).
  void matvec(const T* x, T* y) const {
    kernels::spmv(rows_, row_ptr_.data(), col_idx_.data(), values_.data(), x, y);
  }

  /// Entry lookup (binary search within the row — col_idx_ is sorted within
  /// each row after CooMatrix::compress); 0 if absent.
  [[nodiscard]] T at(std::size_t i, std::size_t j) const noexcept {
    const auto* first = col_idx_.data() + row_ptr_[i];
    const auto* last = col_idx_.data() + row_ptr_[i + 1];
    const auto* it = std::lower_bound(first, last, static_cast<std::uint32_t>(j));
    if (it == last || *it != j) return T(0);
    return values_[static_cast<std::size_t>(it - col_idx_.data())];
  }

  /// Convert the value array into another scalar type (same pattern).
  template <typename U>
  [[nodiscard]] CsrMatrix<U> convert() const {
    CsrMatrix<U> m;
    m.rows_ = rows_;
    m.cols_ = cols_;
    m.row_ptr_ = row_ptr_;
    m.col_idx_ = col_idx_;
    m.values_.reserve(values_.size());
    for (const T& v : values_) {
      m.values_.push_back(NumTraits<U>::from_double(NumTraits<T>::to_double(v)));
    }
    return m;
  }

  template <typename U>
  friend class CsrMatrix;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::uint32_t> row_ptr_{0};
  std::vector<std::uint32_t> col_idx_;
  std::vector<T> values_;
};

/// Does any entry of the (double) matrix fall outside the representable
/// dynamic range of format T (maps to 0, inf or NaN)? This is the paper's
/// ∞σ pre-check.
template <typename T>
[[nodiscard]] bool matrix_exceeds_range(const CsrMatrix<double>& a) {
  for (const double v : a.values()) {
    if (conversion_loses_value<T>(v)) return true;
  }
  return false;
}

}  // namespace mfla

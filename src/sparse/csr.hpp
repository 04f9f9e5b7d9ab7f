// Compressed sparse row matrix, templated over the scalar type.
//
// The matvec delegates to kernels::spmv, which accumulates in the working
// format T — this is the central kernel whose low-precision behavior the
// study measures.
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

  [[nodiscard]] static CsrMatrix from_coo(const CooMatrix& coo) {
    CooMatrix c = coo;
    c.compress();
    CsrMatrix m;
    m.rows_ = c.rows();
    m.cols_ = c.cols();
    m.row_ptr_.assign(m.rows_ + 1, 0);
    m.col_idx_.reserve(c.nnz());
    m.values_.reserve(c.nnz());
    for (const auto& t : c.triplets()) ++m.row_ptr_[t.row + 1];
    for (std::size_t i = 0; i < m.rows_; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
    for (const auto& t : c.triplets()) {
      m.col_idx_.push_back(t.col);
      m.values_.push_back(NumTraits<T>::from_double(t.value));
    }
    m.rebuild_spmv_plan();
    return m;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }
  [[nodiscard]] const std::vector<std::uint32_t>& row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] const std::vector<std::uint32_t>& col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] const std::vector<T>& values() const noexcept { return values_; }
  /// Explicit mutable access (there is deliberately no non-const values():
  /// a read through it would silently cost the fast path). Mutation drops
  /// the precomputed SpMV plan — it indexes the operation tables by value
  /// bits — so matvec takes the generic kernel until rebuild_spmv_plan()
  /// is called: slower, never incorrect.
  [[nodiscard]] std::vector<T>& mutable_values() noexcept {
    spmv_plan_.clear();
    sell_plan_.clear();
    return values_;
  }

  /// Is the precomputed offset plan current? (matvec falls back to the
  /// generic kernel when it is not — mutable_values() invalidates the
  /// offset and SELL-8 plans together.)
  [[nodiscard]] bool has_spmv_plan() const noexcept {
    return kernels::spmv_plan_supported<T>() && spmv_plan_.size() == values_.size() &&
           !values_.empty();
  }

  /// y := A x, accumulated in T. 8-bit formats with a current offset plan
  /// take the planned LUT kernel — SELL-8 when the matrix admits the
  /// layout, row at a time otherwise — bit-identical to the generic
  /// dispatch (kernels/spmv.hpp).
  void matvec(const T* x, T* y) const {
    if constexpr (kernels::spmv_plan_supported<T>()) {
      if (spmv_plan_.size() == values_.size() && kernels::lut_enabled()) {
        kernels::spmv_planned(rows_, row_ptr_.data(), col_idx_.data(), spmv_plan_.data(), x, y,
                              &sell_plan_);
        return;
      }
    }
    kernels::spmv(rows_, row_ptr_.data(), col_idx_.data(), values_.data(), x, y);
  }

  /// (Re)compute the per-nonzero LUT row offsets and the SELL-8 slice plan
  /// over them (kernels/spmv.hpp; the plan comes out invalid when the
  /// matrix does not admit the layout). No-op for formats wider than
  /// 8 bits. Called by the constructors; call manually after editing
  /// values() in place.
  void rebuild_spmv_plan() {
    if constexpr (kernels::spmv_plan_supported<T>()) {
      spmv_plan_ = kernels::build_spmv_plan(values_.data(), values_.size());
      sell_plan_ = kernels::build_sell_plan(rows_, cols_, row_ptr_.data(), col_idx_.data(),
                                            spmv_plan_.data());
    }
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
    m.rebuild_spmv_plan();
    return m;
  }

  template <typename U>
  friend class CsrMatrix;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::uint32_t> row_ptr_{0};
  std::vector<std::uint32_t> col_idx_;
  std::vector<T> values_;
  // Per-nonzero LUT row offsets (8-bit formats only; empty otherwise or
  // after in-place value mutation). 2 bytes per nonzero.
  std::vector<std::uint16_t> spmv_plan_;
  // SELL-8 slice plan over the offsets (kernels/spmv.hpp); invalidated
  // together with spmv_plan_ by mutable_values().
  kernels::SellPlan sell_plan_;
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

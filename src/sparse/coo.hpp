// Coordinate-format sparse matrix (assembly format).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mfla {

struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

class CooMatrix {
 public:
  CooMatrix() = default;
  CooMatrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] const std::vector<Triplet>& triplets() const noexcept { return triplets_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return triplets_.size(); }

  void reserve(std::size_t n) { triplets_.reserve(n); }

  void add(std::uint32_t r, std::uint32_t c, double v) {
    if (v == 0.0) return;
    triplets_.push_back({r, c, v});
    if (r >= rows_) rows_ = r + 1;
    if (c >= cols_) cols_ = c + 1;
  }

  /// Resize without touching the triplets; the new shape must still hold
  /// every entry.
  void set_shape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
  }

  /// Sort by (row, col) and sum duplicate entries in place.
  void compress() {
    std::sort(triplets_.begin(), triplets_.end(), [](const Triplet& a, const Triplet& b) {
      return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    std::size_t out = 0;
    for (std::size_t i = 0; i < triplets_.size();) {
      Triplet t = triplets_[i];
      std::size_t j = i + 1;
      while (j < triplets_.size() && triplets_[j].row == t.row && triplets_[j].col == t.col) {
        t.value += triplets_[j].value;
        ++j;
      }
      if (t.value != 0.0) triplets_[out++] = t;
      i = j;
    }
    triplets_.resize(out);
  }

  /// Are the triplets what compress() leaves: sorted by (row, col) with no
  /// repeated position? (add() never stores a zero.) One linear pass.
  [[nodiscard]] bool is_compressed() const noexcept {
    for (std::size_t k = 1; k < triplets_.size(); ++k) {
      const Triplet& a = triplets_[k - 1];
      const Triplet& b = triplets_[k];
      if (a.row > b.row || (a.row == b.row && a.col >= b.col)) return false;
    }
    return true;
  }

  /// Aᵀ by a counting sort on the column, stable within each column, so a
  /// compressed matrix transposes to a compressed one.
  [[nodiscard]] CooMatrix transposed() const {
    CooMatrix t(cols_, rows_);
    std::vector<std::size_t> start(cols_ + 1, 0);
    for (const auto& e : triplets_) ++start[e.col + 1];
    for (std::size_t c = 0; c < cols_; ++c) start[c + 1] += start[c];
    t.triplets_.resize(triplets_.size());
    for (const auto& e : triplets_) t.triplets_[start[e.col]++] = {e.col, e.row, e.value};
    return t;
  }

  /// Is the matrix, compressed, symmetric to within `tol`?
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<Triplet> triplets_;
};

inline bool CooMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  if (!is_compressed()) {
    CooMatrix a = *this;
    a.compress();
    return a.is_symmetric(tol);
  }
  const CooMatrix b = transposed();
  const auto& ta = triplets_;
  const auto& tb = b.triplets();
  if (ta.size() != tb.size()) return false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].row != tb[i].row || ta[i].col != tb[i].col) return false;
    const double d = ta[i].value - tb[i].value;
    if (d > tol || d < -tol) return false;
  }
  return true;
}

}  // namespace mfla

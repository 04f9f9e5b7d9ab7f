// The Krylov basis kernels against the plain loops they reorder, bit for
// bit. kernels::mgs_pass (and detail::orthogonalize, which repeats it under
// the DGKS test) fuses one column's axpy with the next column's dot over
// chunks of rows; the reference is modified Gram–Schmidt written as one
// dot, then one axpy, per column. kernels::update_basis computes blocks of
// output columns per sweep over tiles of rows; the reference is the
// column-at-a-time j-l-i loop. Typed over every scalar a production solve
// runs them on: OnGrid<T> for the 12 emulated formats, float, double and
// dd. The lengths straddle the chunk and tile edges, and some cases put
// NaN/NaR, +-inf and -0 into the columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "arith/dd.hpp"
#include "arith/format_registry.hpp"
#include "arith/on_grid.hpp"
#include "core/arnoldi.hpp"
#include "dense/matrix.hpp"
#include "kernels/vector_ops.hpp"
#include "on_grid_match.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

/// The same value, bit for bit: on_grid_match.hpp's matches() for a grid
/// value; the bit patterns of the natives (both words of dd), -0.0
/// included. Any two NaNs of a native match: IEEE 754 leaves a NaN
/// result's sign and payload open, and the compiler may swap the operands
/// of a commutative operation differently in differently shaped loops, so
/// they are not the loop order's to keep.
template <typename S>
bool same(S a, S b) {
  if constexpr (std::is_same_v<S, float>) {
    return (a != a && b != b) || std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
  } else if constexpr (std::is_same_v<S, double>) {
    return (a != a && b != b) || std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  } else if constexpr (std::is_same_v<S, DoubleDouble>) {
    return same(a.hi, b.hi) && same(a.lo, b.lo);
  } else {
    return matches(a, b);
  }
}

template <typename S>
void expect_same_vec(const S* got, const S* want, std::size_t n, const std::string& what) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(same(got[i], want[i]))
        << what << " differs at " << i << ": " << NumTraits<S>::to_double(got[i]) << " vs "
        << NumTraits<S>::to_double(want[i]);
}

// ---- References: the loops before the restructuring -------------------------------

/// Modified Gram–Schmidt, one dot and then one axpy per column, re-passed
/// while the DGKS test asks; `passes` counts the passes run.
template <typename S>
S unfused_orthogonalize(const DenseMatrix<S>& v, std::size_t cols, S* w, S* h, S norm_before,
                        int& passes) {
  const std::size_t n = v.rows();
  const S eta = NumTraits<S>::from_double(0.7071067811865475);
  for (std::size_t j = 0; j < cols; ++j) h[j] = S(0);
  S norm_after = norm_before;
  passes = 0;
  for (int pass = 0; pass < 3; ++pass) {
    ++passes;
    for (std::size_t j = 0; j < cols; ++j) {
      const S c = kernels::dot(n, v.col(j), w);
      h[j] += c;
      kernels::axpy(n, -c, v.col(j), w);
    }
    norm_after = kernels::nrm2(n, w);
    if (!is_number(norm_after)) return norm_after;
    if (norm_after > eta * norm_before) break;
    norm_before = norm_after;
  }
  return norm_after;
}

/// V * W one output column at a time, each out(i, j) summed from zero in
/// ascending l.
template <typename S>
DenseMatrix<S> column_loop_product(const DenseMatrix<S>& v, const DenseMatrix<S>& w,
                                   std::size_t wrows, std::size_t keep) {
  const std::size_t n = v.rows();
  DenseMatrix<S> out(n, keep);
  for (std::size_t j = 0; j < keep; ++j)
    for (std::size_t l = 0; l < wrows; ++l) {
      const S wlj = w(l, j);
      for (std::size_t i = 0; i < n; ++i) out(i, j) = out(i, j) + v(i, l) * wlj;
    }
  return out;
}

// ---- Operands ---------------------------------------------------------------------

constexpr std::array<std::size_t, 8> kLengths = {
    1, 2, kernels::kMgsChunkRows - 1, kernels::kMgsChunkRows, kernels::kMgsChunkRows + 1, 47,
    kernels::kBasisTileRows + 5, 2 * kernels::kBasisTileRows + 3};
constexpr std::array<std::size_t, 5> kColumns = {1, 3, 4, 5, 14};

/// Normal random entries scaled by `scale`.
template <typename S>
DenseMatrix<S> random_matrix(std::size_t rows, std::size_t cols, double scale, Rng& rng) {
  DenseMatrix<S> m(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i)
      m(i, j) = NumTraits<S>::from_double(scale * rng.normal());
  return m;
}

/// Puts NaN (NaR on a tapered grid), +inf, -inf and -0 into column j of m,
/// at rows spread over its length (fewer when the column is short).
template <typename S>
void poison_column(DenseMatrix<S>& m, std::size_t j) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf};
  const std::size_t n = m.rows();
  for (std::size_t k = 0; k < 4; ++k) m((k * n) / 4, j) = NumTraits<S>::from_double(specials[k]);
}

/// -0 into every third entry of w: the dot and axpy terms of -0 operands.
template <typename S>
void negative_zeros(std::vector<S>& w) {
  for (std::size_t i = 0; i < w.size(); i += 3) w[i] = NumTraits<S>::from_double(-0.0);
}

template <typename S>
class BasisKernels : public ::testing::Test {};

using Scalars =
    ::testing::Types<OnGrid<OFP8E4M3>, OnGrid<OFP8E5M2>, OnGrid<Posit8>, OnGrid<Takum8>,
                     OnGrid<Float16>, OnGrid<BFloat16>, OnGrid<Posit16>, OnGrid<Takum16>,
                     OnGrid<Posit32>, OnGrid<Takum32>, OnGrid<Posit64>, OnGrid<Takum64>, float,
                     double, DoubleDouble>;

struct ScalarName {
  template <typename S>
  static std::string GetName(int) {
    std::string s = NumTraits<S>::name();
    s.erase(std::remove_if(s.begin(), s.end(), [](char c) { return !std::isalnum(c); }), s.end());
    return s;
  }
};

TYPED_TEST_SUITE(BasisKernels, Scalars, ScalarName);

/// The kinds of w each Gram–Schmidt case starts from.
enum class Start { random, in_span, poisoned };

/// w for one case: random; mostly in the span of V's columns (so the DGKS
/// test asks for further passes); or random with -0 entries and V's first
/// column poisoned.
template <typename S>
std::vector<S> start_vector(DenseMatrix<S>& v, std::size_t cols, Start kind, Rng& rng) {
  const std::size_t n = v.rows();
  std::vector<S> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = NumTraits<S>::from_double(rng.normal());
  if (kind == Start::in_span) {
    for (std::size_t i = 0; i < n; ++i) w[i] = w[i] * NumTraits<S>::from_double(1e-3);
    for (std::size_t j = 0; j < cols; ++j) {
      const S c = NumTraits<S>::from_double(rng.normal());
      kernels::axpy(n, c, v.col(j), w.data());
    }
  } else if (kind == Start::poisoned) {
    negative_zeros(w);
    poison_column(v, 0);
  }
  return w;
}

TYPED_TEST(BasisKernels, MgsPassMatchesDotThenAxpy) {
  using S = TypeParam;
  Rng rng(0x3a55);
  for (const std::size_t n : kLengths)
    for (const std::size_t cols : {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{14}})
      for (const Start kind : {Start::random, Start::poisoned}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " cols=" + std::to_string(cols));
        DenseMatrix<S> v = random_matrix<S>(n, std::max<std::size_t>(cols, 1), 0.5, rng);
        std::vector<S> w = start_vector(v, cols, kind, rng);
        std::vector<S> w_ref = w;
        std::vector<S> h(cols + 1, S(1)), h_ref = h;

        const S norm = kernels::mgs_pass(v, cols, w.data(), h.data());
        for (std::size_t j = 0; j < cols; ++j) {
          const S c = kernels::dot(n, v.col(j), w_ref.data());
          h_ref[j] += c;
          kernels::axpy(n, -c, v.col(j), w_ref.data());
        }
        const S norm_ref = kernels::nrm2(n, w_ref.data());

        EXPECT_TRUE(same(norm, norm_ref)) << NumTraits<S>::to_double(norm) << " vs "
                                          << NumTraits<S>::to_double(norm_ref);
        expect_same_vec(w.data(), w_ref.data(), n, "w");
        expect_same_vec(h.data(), h_ref.data(), cols + 1, "h");
      }
}

TYPED_TEST(BasisKernels, OrthogonalizeMatchesUnfusedLoop) {
  using S = TypeParam;
  Rng rng(0x0a7c);
  std::array<int, 4> pass_counts{};
  for (const std::size_t n : kLengths)
    for (const std::size_t cols : kColumns)
      for (const Start kind : {Start::random, Start::in_span, Start::poisoned}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " cols=" + std::to_string(cols) +
                     " start=" + std::to_string(static_cast<int>(kind)));
        DenseMatrix<S> v = random_matrix<S>(n, cols, 1.0 / std::sqrt(static_cast<double>(n)), rng);
        std::vector<S> w = start_vector(v, cols, kind, rng);
        std::vector<S> w_ref = w;
        std::vector<S> h(cols, S(7)), h_ref(cols, S(-7));
        const S norm_before = kernels::nrm2(n, w.data());

        int passes = 0;
        const S norm_ref =
            unfused_orthogonalize(v, cols, w_ref.data(), h_ref.data(), norm_before, passes);
        const S norm = detail::orthogonalize(v, cols, w.data(), h.data(), norm_before);
        ++pass_counts[static_cast<std::size_t>(passes)];

        EXPECT_TRUE(same(norm, norm_ref)) << NumTraits<S>::to_double(norm) << " vs "
                                          << NumTraits<S>::to_double(norm_ref) << " after "
                                          << passes << " passes";
        expect_same_vec(w.data(), w_ref.data(), n, "w");
        expect_same_vec(h.data(), h_ref.data(), cols, "h");
      }
  // Every DGKS outcome ran: one pass, a re-pass, and the third pass.
  EXPECT_GT(pass_counts[1], 0);
  EXPECT_GT(pass_counts[2], 0);
  EXPECT_GT(pass_counts[3], 0);
}

TYPED_TEST(BasisKernels, UpdateBasisMatchesColumnLoop) {
  using S = TypeParam;
  Rng rng(0xba5e);
  std::vector<S> scratch;  // recycled across calls, as a solve does
  for (const std::size_t n : kLengths)
    for (const std::size_t keep : kColumns)
      for (const bool poisoned : {false, true}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " keep=" + std::to_string(keep) +
                     (poisoned ? " poisoned" : ""));
        // V has wrows + 1 columns and W is larger than the wrows x keep block
        // read, as in a thick restart.
        const std::size_t wrows = keep + 1;
        DenseMatrix<S> v = random_matrix<S>(n, wrows + 1, 1.0, rng);
        DenseMatrix<S> w = random_matrix<S>(wrows + 1, keep + 1, 0.3, rng);
        if (poisoned) {
          poison_column(v, wrows / 2);
          w(0, 0) = NumTraits<S>::from_double(-0.0);
          for (std::size_t i = 0; i < n; i += 2) v(i, 0) = NumTraits<S>::from_double(-0.0);
        }
        const DenseMatrix<S> v_before = v;
        const DenseMatrix<S> want = column_loop_product(v, w, wrows, keep);

        kernels::update_basis(v, w, wrows, keep, scratch);
        for (std::size_t j = 0; j < keep; ++j)
          expect_same_vec(v.col(j), want.col(j), n, "column " + std::to_string(j));
        for (std::size_t j = keep; j < v.cols(); ++j)
          expect_same_vec(v.col(j), v_before.col(j), n, "untouched column " + std::to_string(j));
      }
}

}  // namespace
}  // namespace mfla

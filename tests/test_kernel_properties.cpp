// Property/fuzz harness over the kernel layer: every kernels:: entry point
// (dot, nrm2, axpy, scal, mgs_pass, spmv, update_basis) run over
// OnGrid<T> must give what the same entry point gives over T, the exact
// engine, for EVERY resident format in the registry, on operand streams
// that deliberately include the nasty values (NaN / NaR, +/-inf, -0.0,
// double denormals, values past the format's range in both directions)
// interleaved with seeded pseudo-random data.
//
// Production solves run these kernels over OnGrid<T>; the exact engine over
// T is the definition of the format. Results are compared as
// on_grid_match.hpp's matches() does (the encoding at 8 bits, the held
// double at 16 and 32, the encoding and the unpacked fields at 64), so NaN
// payloads and -0.0 count. The per-operation oracles are in
// tests/test_on_grid.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "arith/format_registry.hpp"
#include "arith/on_grid.hpp"
#include "dense/matrix.hpp"
#include "kernels/spmv.hpp"
#include "kernels/vector_ops.hpp"
#include "on_grid_match.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

/// Operand stream: the special values cycle through the head positions and
/// then keep reappearing every 7th slot inside pseudo-random filler, so
/// short vectors are all-special and long ones mix specials throughout.
template <typename T>
std::vector<T> fuzz_vec(std::size_t n, std::uint64_t seed) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,    -0.0,   1.0,   -1.0,  inf,     -inf,  nan,  5e-324,
                             1e-300, -1e-40, 1e300, -1e38, 65504.0, 0.125, -0.1, 3.5};
  constexpr std::size_t ns = sizeof(specials) / sizeof(specials[0]);
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (i < ns || i % 7 == 0) ? specials[(i + seed) % ns] : rng.normal() * 4.0;
    v.push_back(NumTraits<T>::from_double(d));
  }
  return v;
}

template <typename T>
std::vector<OnGrid<T>> on_grid(const std::vector<T>& v) {
  return std::vector<OnGrid<T>>(v.begin(), v.end());
}

template <typename T>
DenseMatrix<T> fuzz_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  const auto v = fuzz_vec<T>(rows * cols, seed);
  DenseMatrix<T> m(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i) m(i, j) = v[j * rows + i];
  return m;
}

template <typename T>
DenseMatrix<OnGrid<T>> on_grid(const DenseMatrix<T>& m) {
  return m.template map<OnGrid<T>>([](T x) { return OnGrid<T>(x); });
}

template <typename T>
void expect_scalar(OnGrid<T> got, T want, const std::string& what) {
  EXPECT_TRUE(matches(got, want)) << NumTraits<T>::name() << " " << what << ": "
                                  << got.to_double() << " on the grid, "
                                  << NumTraits<T>::to_double(want) << " in T";
}

template <typename T>
void expect_vec(const std::vector<OnGrid<T>>& got, const std::vector<T>& want,
                const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(matches(got[i], want[i]))
        << NumTraits<T>::name() << " " << what << " differs at " << i << " ("
        << got[i].to_double() << " on the grid, " << NumTraits<T>::to_double(want[i]) << " in T)";
}

template <typename T>
void expect_matrix(const DenseMatrix<OnGrid<T>>& got, const DenseMatrix<T>& want,
                   const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t j = 0; j < want.cols(); ++j)
    for (std::size_t i = 0; i < want.rows(); ++i)
      ASSERT_TRUE(matches(got(i, j), want(i, j)))
          << NumTraits<T>::name() << " " << what << " differs at (" << i << ", " << j << ")";
}

/// A small fixed CSR structure with irregular rows (lengths 0..4) used for
/// the spmv legs; values come from the fuzz stream.
struct FuzzCsr {
  std::vector<std::uint32_t> row_ptr, col_idx;
  std::size_t rows, cols;
  explicit FuzzCsr(std::size_t rows_, std::size_t cols_, std::uint64_t seed)
      : rows(rows_), cols(cols_) {
    Rng rng(seed);
    row_ptr.push_back(0);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t len = (r * 3 + static_cast<std::size_t>(seed)) % 5;
      for (std::size_t t = 0; t < len; ++t)
        col_idx.push_back(static_cast<std::uint32_t>(rng.uniform_index(cols)));
      row_ptr.push_back(static_cast<std::uint32_t>(col_idx.size()));
    }
  }
};

template <typename T>
void check_format(int bits) {
  using G = OnGrid<T>;
  // The wide formats' exact engines are slow; keep their volume down so the
  // suite stays fast.
  const std::size_t nmax = bits <= 16 ? 130 : 33;
  const std::size_t lengths[] = {0, 1, 9, 33, nmax};
  const T alpha = NumTraits<T>::from_double(-0.75);
  const G galpha(alpha);

  for (const std::size_t n : lengths) {
    const std::string at = " n=" + std::to_string(n);
    const auto x = fuzz_vec<T>(n, 1 + n);
    const auto y = fuzz_vec<T>(n, 2 + n);
    const auto xg = on_grid(x), yg = on_grid(y);

    expect_scalar(kernels::dot(n, xg.data(), yg.data()), kernels::dot(n, x.data(), y.data()),
                  "dot" + at);
    expect_scalar(kernels::nrm2(n, xg.data()), kernels::nrm2(n, x.data()), "nrm2" + at);
    std::vector<T> ax = y, sc = x;
    std::vector<G> axg = yg, scg = xg;
    kernels::axpy(n, alpha, x.data(), ax.data());
    kernels::axpy(n, galpha, xg.data(), axg.data());
    kernels::scal(n, alpha, sc.data());
    kernels::scal(n, galpha, scg.data());
    expect_vec(axg, ax, "axpy" + at);
    expect_vec(scg, sc, "scal" + at);
  }

  // The restart's basis update: V (n x 7) times the leading 6 x 4 block of
  // a larger W.
  {
    auto v = fuzz_matrix<T>(nmax, 7, 61);
    const auto w = fuzz_matrix<T>(7, 5, 62);
    auto vg = on_grid(v);
    std::vector<T> scratch;
    std::vector<G> scratch_g;
    kernels::update_basis(v, w, 6, 4, scratch);
    kernels::update_basis(vg, on_grid(w), 6, 4, scratch_g);
    expect_matrix(vg, v, "update_basis");
  }

  // One modified Gram–Schmidt pass of w against the 5 columns of V.
  {
    const auto v = fuzz_matrix<T>(nmax, 5, 71);
    auto w = fuzz_vec<T>(nmax, 72);
    auto wg = on_grid(w);
    std::vector<T> h(5, T(0));
    std::vector<G> hg(5, G(0));
    const T norm = kernels::mgs_pass(v, 5, w.data(), h.data());
    expect_scalar(kernels::mgs_pass(on_grid(v), 5, wg.data(), hg.data()), norm, "mgs_pass");
    expect_vec(wg, w, "mgs_pass w");
    expect_vec(hg, h, "mgs_pass h");
  }

  // Sparse: spmv over an irregular structure with special values.
  {
    const FuzzCsr s(29, 17, 5);
    const auto vals = fuzz_vec<T>(s.col_idx.size(), 51);
    const auto x = fuzz_vec<T>(s.cols, 52);
    std::vector<T> yv(s.rows);
    std::vector<G> yg(s.rows);
    kernels::spmv(s.rows, s.row_ptr.data(), s.col_idx.data(), vals.data(), x.data(), yv.data());
    kernels::spmv(s.rows, s.row_ptr.data(), s.col_idx.data(), on_grid(vals).data(),
                  on_grid(x).data(), yg.data());
    expect_vec(yg, yv, "spmv");
  }
}

TEST(KernelProperties, AllRegistryFormats) {
  std::size_t resident = 0;
  for (const FormatInfo& info : all_formats()) {
    SCOPED_TRACE(info.name);
    dispatch_format(info.id, [&](auto tag) {
      using T = typename decltype(tag)::type;
      // float32 and float64 have one engine, the hardware: nothing to compare.
      if constexpr (kGridResident<T>) {
        check_format<T>(info.bits);
        ++resident;
      }
    });
  }
  EXPECT_EQ(resident, 12u);
}

}  // namespace
}  // namespace mfla

// Property/fuzz harness over the kernel layer: every dispatching kernels::
// entry point must be bit-identical to its kernels::ref:: definition with
// the LUT fast paths off and on, for EVERY format in the registry, on operand
// streams that deliberately include the nasty values (NaN / NaR, +/-inf,
// -0.0, double denormals, values past the format's range in both
// directions) interleaved with seeded pseudo-random data.
//
// The acceleration tier may only change how a result is found, never what
// is computed; this suite is the pairwise enforcement of that contract one
// level above the exhaustive per-table tests (test_kernel_accel.cpp).
// The 8-bit formats also run the planned SpMV (offset plan, with and
// without its SELL-8 slice plan) against the same reference. Results are
// compared by object representation (memcmp), so NaN payloads and -0.0
// count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "arith/format_registry.hpp"
#include "dense/matrix.hpp"
#include "kernels/accel.hpp"
#include "kernels/spmv.hpp"
#include "kernels/vector_ops.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

/// The dispatch configurations under test (ref:: is the implicit extra leg
/// of every comparison): exact engines and the LUT fast paths.
struct Config {
  bool lut;
  const char* name;
};
constexpr Config kConfigs[] = {
    {false, "exact"},
    {true, "lut"},
};

/// Scoped override of the runtime LUT switch.
class ConfigGuard {
 public:
  explicit ConfigGuard(const Config& c) : lut_prev_(kernels::set_lut_enabled(c.lut)) {}
  ~ConfigGuard() { kernels::set_lut_enabled(lut_prev_); }
  ConfigGuard(const ConfigGuard&) = delete;
  ConfigGuard& operator=(const ConfigGuard&) = delete;

 private:
  bool lut_prev_;
};

template <typename T>
[[nodiscard]] bool same_repr(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

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
void expect_vec_repr(const std::vector<T>& got, const std::vector<T>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_repr(got[i], want[i]))
        << NumTraits<T>::name() << " " << what << " differs from ref at " << i << " ("
        << NumTraits<T>::to_double(got[i]) << " vs " << NumTraits<T>::to_double(want[i]) << ")";
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
  // Wide formats run fully emulated exact engines on every leg; keep their
  // volume down so the suite stays fast.
  const std::size_t nmax = bits <= 16 ? 130 : 33;
  const std::size_t lengths[] = {0, 1, 9, 33, nmax};
  const T alpha = NumTraits<T>::from_double(-0.75);

  for (const std::size_t n : lengths) {
    const auto x = fuzz_vec<T>(n, 1 + n);
    const auto y = fuzz_vec<T>(n, 2 + n);

    // Reference results (exact engines, by definition).
    const T dot_ref = kernels::ref::dot(n, x.data(), y.data());
    const T nrm_ref = kernels::ref::nrm2(n, x.data());
    std::vector<T> axpy_ref = y, scal_ref = x;
    kernels::ref::axpy(n, alpha, x.data(), axpy_ref.data());
    kernels::ref::scal(n, alpha, scal_ref.data());

    for (const Config& cfg : kConfigs) {
      ConfigGuard guard(cfg);
      ASSERT_TRUE(same_repr(kernels::dot(n, x.data(), y.data()), dot_ref))
          << NumTraits<T>::name() << " dot n=" << n << " cfg=" << cfg.name;
      ASSERT_TRUE(same_repr(kernels::nrm2(n, x.data()), nrm_ref))
          << NumTraits<T>::name() << " nrm2 n=" << n << " cfg=" << cfg.name;
      std::vector<T> ax = y, sc = x;
      kernels::axpy(n, alpha, x.data(), ax.data());
      kernels::scal(n, alpha, sc.data());
      expect_vec_repr(ax, axpy_ref, std::string("axpy cfg=") + cfg.name);
      expect_vec_repr(sc, scal_ref, std::string("scal cfg=") + cfg.name);
    }
  }

  // Dense gemv / gemv_t / matmul on a small matrix with specials.
  {
    const std::size_t m = 13, n2 = 11;
    DenseMatrix<T> a(m, n2);
    const auto av = fuzz_vec<T>(m * n2, 41);
    for (std::size_t j = 0; j < n2; ++j)
      for (std::size_t i = 0; i < m; ++i) a(i, j) = av[j * m + i];
    const auto xr = fuzz_vec<T>(n2, 42);
    const auto xl = fuzz_vec<T>(m, 43);
    DenseMatrix<T> b(n2, 5);
    const auto bv = fuzz_vec<T>(n2 * 5, 44);
    for (std::size_t j = 0; j < 5; ++j)
      for (std::size_t i = 0; i < n2; ++i) b(i, j) = bv[j * n2 + i];

    std::vector<T> gemv_ref(m), gemvt_ref(n2);
    {
      ConfigGuard guard(kConfigs[0]);  // exact dispatch == reference leg
      kernels::gemv(a, xr.data(), gemv_ref.data());
      kernels::gemv_t(a, xl.data(), gemvt_ref.data());
    }
    const DenseMatrix<T> mm_ref = [&] {
      ConfigGuard guard(kConfigs[0]);
      return kernels::matmul(a, b);
    }();
    for (const Config& cfg : kConfigs) {
      ConfigGuard guard(cfg);
      std::vector<T> gv(m), gvt(n2);
      kernels::gemv(a, xr.data(), gv.data());
      kernels::gemv_t(a, xl.data(), gvt.data());
      expect_vec_repr(gv, gemv_ref, std::string("gemv cfg=") + cfg.name);
      expect_vec_repr(gvt, gemvt_ref, std::string("gemv_t cfg=") + cfg.name);
      const DenseMatrix<T> mm = kernels::matmul(a, b);
      for (std::size_t j = 0; j < mm.cols(); ++j)
        for (std::size_t i = 0; i < mm.rows(); ++i)
          ASSERT_TRUE(same_repr(mm(i, j), mm_ref(i, j)))
              << NumTraits<T>::name() << " matmul cfg=" << cfg.name << " (" << i << ", " << j
              << ")";
    }
  }

  // Sparse: spmv over an irregular structure with special values.
  {
    const FuzzCsr s(29, 17, 5);
    const auto vals = fuzz_vec<T>(s.col_idx.size(), 51);
    const auto x = fuzz_vec<T>(s.cols, 52);
    std::vector<T> spmv_ref(s.rows);
    kernels::ref::spmv(s.rows, s.row_ptr.data(), s.col_idx.data(), vals.data(), x.data(),
                       spmv_ref.data());
    for (const Config& cfg : kConfigs) {
      ConfigGuard guard(cfg);
      std::vector<T> yv(s.rows);
      kernels::spmv(s.rows, s.row_ptr.data(), s.col_idx.data(), vals.data(), x.data(),
                    yv.data());
      expect_vec_repr(yv, spmv_ref, std::string("spmv cfg=") + cfg.name);
    }
#if MFLA_ENABLE_LUT
    if constexpr (kernels::spmv_plan_supported<T>()) {
      const auto offsets = kernels::build_spmv_plan(vals.data(), vals.size());
      const kernels::SellPlan sell = kernels::build_sell_plan(
          s.rows, s.cols, s.row_ptr.data(), s.col_idx.data(), offsets.data());
      ASSERT_TRUE(sell.valid);
      std::vector<T> yr(s.rows), ys(s.rows);
      kernels::spmv_planned(s.rows, s.row_ptr.data(), s.col_idx.data(), offsets.data(),
                            x.data(), yr.data());
      kernels::spmv_planned(s.rows, s.row_ptr.data(), s.col_idx.data(), offsets.data(),
                            x.data(), ys.data(), &sell);
      expect_vec_repr(yr, spmv_ref, "spmv_planned row-at-a-time");
      expect_vec_repr(ys, spmv_ref, "spmv_planned SELL-8");
    }
#endif
  }
}

TEST(KernelProperties, AllRegistryFormats) {
  for (const FormatInfo& info : all_formats()) {
    SCOPED_TRACE(info.name);
    dispatch_format(info.id, [&](auto tag) {
      using T = typename decltype(tag)::type;
      check_format<T>(info.bits);
    });
  }
}

}  // namespace
}  // namespace mfla

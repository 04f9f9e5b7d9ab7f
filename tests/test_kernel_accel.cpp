// Bit-identity of the kernel layer's LUT fast paths (kernels/accel.hpp)
// against the exact engines:
//   * exhaustive add/mul over all 256x256 operand pairs for every 8-bit
//     format,
//   * exhaustive decode (double and, for tapered formats, Unpacked) over
//     all 65536 encodings for every 16-bit format,
//   * sampled operand pairs through the 16-bit fast-path ops,
//   * whole kernels (dot/axpy/scal/gemv/spmv) with LUTs on vs off,
//   * the SELL-8 SpMV: the transposed add table it reads, its plan's
//     validity guards and layout, the slice kernel against the row-at-a-time
//     planned recurrence, and CsrMatrix::matvec against the generic
//     kernels::spmv whether the matrix admits a SELL-8 plan or not,
//   * an end-to-end experiment run whose result CSV must be byte-identical
//     with LUTs on and off.
// In an MFLA_ENABLE_LUT=0 build the fast paths are compiled out and the
// on/off comparisons degenerate to exact-vs-exact, which keeps this suite
// meaningful in both CI configurations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/results_io.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "kernels/accel.hpp"
#include "kernels/simd.hpp"
#include "kernels/spmv.hpp"
#include "kernels/vector_ops.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

/// RAII override of the runtime LUT switch.
class LutGuard {
 public:
  explicit LutGuard(bool on) : previous_(kernels::set_lut_enabled(on)) {}
  ~LutGuard() { kernels::set_lut_enabled(previous_); }
  LutGuard(const LutGuard&) = delete;
  LutGuard& operator=(const LutGuard&) = delete;

 private:
  bool previous_;
};

/// NaN-safe double comparison: equal bit patterns.
[[nodiscard]] bool same_double_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename T>
std::vector<T> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(NumTraits<T>::from_double(rng.normal()));
  return v;
}

// -- Exhaustive 8-bit operation tables --------------------------------------

template <typename T>
void check_lut8_exhaustive() {
#if MFLA_ENABLE_LUT
  using Codec = ScalarCodec<T>;
  const auto& lut = kernels::accel::Lut8<T>::instance();
  for (unsigned a = 0; a < 256; ++a) {
    const T ta = Codec::from_bits(static_cast<typename Codec::Storage>(a));
    ASSERT_TRUE(same_double_bits(lut.decode(static_cast<typename Codec::Storage>(a)),
                                 NumTraits<T>::to_double(ta)))
        << NumTraits<T>::name() << " decode mismatch at " << a;
    for (unsigned b = 0; b < 256; ++b) {
      const T tb = Codec::from_bits(static_cast<typename Codec::Storage>(b));
      ASSERT_EQ(Codec::to_bits(lut.add(ta, tb)), Codec::to_bits(ta + tb))
          << NumTraits<T>::name() << " add mismatch at (" << a << ", " << b << ")";
      ASSERT_EQ(Codec::to_bits(lut.mul(ta, tb)), Codec::to_bits(ta * tb))
          << NumTraits<T>::name() << " mul mismatch at (" << a << ", " << b << ")";
    }
  }
#else
  GTEST_SKIP() << "built with MFLA_ENABLE_LUT=0";
#endif
}

TEST(KernelAccel, Lut8ExhaustiveOFP8E4M3) { check_lut8_exhaustive<OFP8E4M3>(); }
TEST(KernelAccel, Lut8ExhaustiveOFP8E5M2) { check_lut8_exhaustive<OFP8E5M2>(); }
TEST(KernelAccel, Lut8ExhaustivePosit8) { check_lut8_exhaustive<Posit8>(); }
TEST(KernelAccel, Lut8ExhaustiveTakum8) { check_lut8_exhaustive<Takum8>(); }

// -- Exhaustive 16-bit decode tables ----------------------------------------

template <typename T>
void check_dec16_exhaustive() {
#if MFLA_ENABLE_LUT
  using Codec = ScalarCodec<T>;
  const auto& lut = kernels::accel::Dec16<T>::instance();
  for (std::uint32_t b = 0; b < 65536; ++b) {
    const auto bits = static_cast<typename Codec::Storage>(b);
    ASSERT_TRUE(same_double_bits(lut.decode(bits), Codec::bits_to_double(bits)))
        << NumTraits<T>::name() << " decode mismatch at " << b;
    if constexpr (Codec::tapered) {
      const Unpacked want = Codec::bits_to_unpacked(bits);
      const Unpacked& got = lut.unpacked(bits);
      ASSERT_EQ(got.neg, want.neg) << NumTraits<T>::name() << " at " << b;
      ASSERT_EQ(got.e, want.e) << NumTraits<T>::name() << " at " << b;
      ASSERT_EQ(got.m, want.m) << NumTraits<T>::name() << " at " << b;
    }
  }
#else
  GTEST_SKIP() << "built with MFLA_ENABLE_LUT=0";
#endif
}

TEST(KernelAccel, Dec16ExhaustiveFloat16) { check_dec16_exhaustive<Float16>(); }
TEST(KernelAccel, Dec16ExhaustiveBFloat16) { check_dec16_exhaustive<BFloat16>(); }
TEST(KernelAccel, Dec16ExhaustivePosit16) { check_dec16_exhaustive<Posit16>(); }
TEST(KernelAccel, Dec16ExhaustiveTakum16) { check_dec16_exhaustive<Takum16>(); }

// -- Sampled 16-bit fast-path operations ------------------------------------

template <typename T>
void check_ops16_sampled() {
#if MFLA_ENABLE_LUT
  using Codec = ScalarCodec<T>;
  using Storage = typename Codec::Storage;
  const auto fast_ops = [] {
    if constexpr (Codec::tapered) {
      return kernels::accel::Dec16TaperedOps<T>{kernels::accel::Dec16<T>::instance()};
    } else {
      return kernels::accel::Dec16IeeeOps<T>{kernels::accel::Dec16<T>::instance()};
    }
  }();
  const kernels::accel::NativeOps<T> exact_ops;

  const auto check_pair = [&](Storage pa, Storage pb) {
    const T a = Codec::from_bits(pa);
    const T b = Codec::from_bits(pb);
    ASSERT_EQ(Codec::to_bits(fast_ops.add(a, b)), Codec::to_bits(exact_ops.add(a, b)))
        << NumTraits<T>::name() << " add mismatch at (" << pa << ", " << pb << ")";
    ASSERT_EQ(Codec::to_bits(fast_ops.mul(a, b)), Codec::to_bits(exact_ops.mul(a, b)))
        << NumTraits<T>::name() << " mul mismatch at (" << pa << ", " << pb << ")";
  };

  // Edge encodings: zero, sign bit alone (NaR / -0), all-ones, extremes of
  // both half-ranges — paired with each other.
  const Storage edges[] = {0x0000, 0x8000, 0xffff, 0x0001, 0x7fff, 0x8001, 0x7c00, 0xfc00};
  for (const Storage a : edges)
    for (const Storage b : edges) check_pair(a, b);

  // 200k pseudo-random operand pairs.
  Rng rng("ops16_sampled", static_cast<std::uint64_t>(Codec::tapered));
  for (int i = 0; i < 200000; ++i) {
    const auto pa = static_cast<Storage>(rng.next_u64() & 0xffff);
    const auto pb = static_cast<Storage>(rng.next_u64() & 0xffff);
    check_pair(pa, pb);
  }
#else
  GTEST_SKIP() << "built with MFLA_ENABLE_LUT=0";
#endif
}

TEST(KernelAccel, Ops16SampledFloat16) { check_ops16_sampled<Float16>(); }
TEST(KernelAccel, Ops16SampledBFloat16) { check_ops16_sampled<BFloat16>(); }
TEST(KernelAccel, Ops16SampledPosit16) { check_ops16_sampled<Posit16>(); }
TEST(KernelAccel, Ops16SampledTakum16) { check_ops16_sampled<Takum16>(); }

// -- Whole kernels, LUT on vs off -------------------------------------------

template <typename T>
CsrMatrix<T> small_matrix(std::size_t n) {
  Rng rng("kernel_accel_matrix", n);
  const CooMatrix lap = graph_laplacian_pipeline(
      erdos_renyi(static_cast<std::uint32_t>(n), 8.0 / static_cast<double>(n), rng));
  return CsrMatrix<double>::from_coo(lap).convert<T>();
}

template <typename T>
void check_kernels_on_off() {
  const std::size_t n = 257;
  const auto x = random_vec<T>(n, 11);
  const auto y = random_vec<T>(n, 12);
  const T alpha = NumTraits<T>::from_double(0.37);
  const auto a = small_matrix<T>(64);
  const auto xs = random_vec<T>(a.cols(), 13);

  T dot_on, dot_off, nrm_on, nrm_off;
  std::vector<T> axpy_on = y, axpy_off = y, scal_on = x, scal_off = x;
  std::vector<T> spmv_on(a.rows()), spmv_off(a.rows());
  {
    LutGuard lut(true);
    dot_on = kernels::dot(n, x.data(), y.data());
    nrm_on = kernels::nrm2(n, x.data());
    kernels::axpy(n, alpha, x.data(), axpy_on.data());
    kernels::scal(n, alpha, scal_on.data());
    a.matvec(xs.data(), spmv_on.data());
  }
  {
    LutGuard lut(false);
    dot_off = kernels::dot(n, x.data(), y.data());
    nrm_off = kernels::nrm2(n, x.data());
    kernels::axpy(n, alpha, x.data(), axpy_off.data());
    kernels::scal(n, alpha, scal_off.data());
    a.matvec(xs.data(), spmv_off.data());
  }
  using Codec = ScalarCodec<T>;
  EXPECT_EQ(Codec::to_bits(dot_on), Codec::to_bits(dot_off));
  EXPECT_EQ(Codec::to_bits(nrm_on), Codec::to_bits(nrm_off));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(Codec::to_bits(axpy_on[i]), Codec::to_bits(axpy_off[i])) << "axpy at " << i;
    ASSERT_EQ(Codec::to_bits(scal_on[i]), Codec::to_bits(scal_off[i])) << "scal at " << i;
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    ASSERT_EQ(Codec::to_bits(spmv_on[i]), Codec::to_bits(spmv_off[i])) << "spmv at " << i;
  }
  // The ref:: path must agree with the LUT-off dispatch by definition.
  EXPECT_EQ(Codec::to_bits(kernels::ref::dot(n, x.data(), y.data())), Codec::to_bits(dot_off));
}

TEST(KernelAccel, KernelsOnOffOFP8E4M3) { check_kernels_on_off<OFP8E4M3>(); }
TEST(KernelAccel, KernelsOnOffOFP8E5M2) { check_kernels_on_off<OFP8E5M2>(); }
TEST(KernelAccel, KernelsOnOffPosit8) { check_kernels_on_off<Posit8>(); }
TEST(KernelAccel, KernelsOnOffTakum8) { check_kernels_on_off<Takum8>(); }
TEST(KernelAccel, KernelsOnOffFloat16) { check_kernels_on_off<Float16>(); }
TEST(KernelAccel, KernelsOnOffBFloat16) { check_kernels_on_off<BFloat16>(); }
TEST(KernelAccel, KernelsOnOffPosit16) { check_kernels_on_off<Posit16>(); }
TEST(KernelAccel, KernelsOnOffTakum16) { check_kernels_on_off<Takum16>(); }

// -- SELL-8 SpMV ----------------------------------------------------------------
//
// These tests keep the KernelSimd suite name they were first registered
// under, from when they also swept the vector ISA rungs; the scalar SELL-8
// path they check is now the only one.

/// Raw random encodings — every byte value occurs, so the formats' NaN /
/// inf / NaR / -0 codes all flow through the kernels.
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  return v;
}

template <typename T>
std::vector<T> from_bytes(const std::vector<std::uint8_t>& bytes) {
  using Codec = ScalarCodec<T>;
  std::vector<T> v;
  v.reserve(bytes.size());
  for (const std::uint8_t b : bytes)
    v.push_back(Codec::from_bits(static_cast<typename Codec::Storage>(b)));
  return v;
}

template <typename T>
void expect_same_bits(const std::vector<T>& a, const std::vector<T>& b, const char* what) {
  using Codec = ScalarCodec<T>;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(Codec::to_bits(a[i]), Codec::to_bits(b[i]))
        << NumTraits<T>::name() << " " << what << " at " << i;
}

/// The provenance report names the one kernel path there is.
TEST(KernelSimd, CapsConsistent) {
  static_assert(std::string_view(kernels::simd_caps().isa) == "scalar");
  EXPECT_STREQ(kernels::simd_caps().isa, "scalar");
}

#if MFLA_ENABLE_LUT

/// The transposed add table the SELL-8 kernel reads:
/// add_t[(b << 8) | a] == add(a, b) for every operand pair, never assuming
/// the format's addition commutes.
template <typename T>
void check_add_transpose() {
  const auto& lut = kernels::accel::Lut8<T>::instance();
  const std::uint8_t* addt = lut.add_t_data();
  for (std::size_t a = 0; a < 256; ++a)
    for (std::size_t b = 0; b < 256; ++b)
      ASSERT_EQ(addt[(b << 8) | a],
                lut.add_bits(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)))
          << NumTraits<T>::name() << " at (" << a << ", " << b << ")";
}

TEST(KernelSimd, AddTransposeOFP8E4M3) { check_add_transpose<OFP8E4M3>(); }
TEST(KernelSimd, AddTransposeOFP8E5M2) { check_add_transpose<OFP8E5M2>(); }
TEST(KernelSimd, AddTransposePosit8) { check_add_transpose<Posit8>(); }
TEST(KernelSimd, AddTransposeTakum8) { check_add_transpose<Takum8>(); }

#endif  // MFLA_ENABLE_LUT

TEST(KernelSimd, SellPlanRejectsWideAndSkewed) {
  // cols beyond 16 bits cannot live in the fused word.
  const std::uint32_t row_ptr1[] = {0, 1};
  const std::uint32_t col_idx1[] = {0};
  const std::uint16_t offsets1[] = {0};
  EXPECT_FALSE(kernels::build_sell_plan(1, 65537, row_ptr1, col_idx1, offsets1).valid);
  EXPECT_TRUE(kernels::build_sell_plan(1, 65536, row_ptr1, col_idx1, offsets1).valid);
  EXPECT_FALSE(kernels::build_sell_plan(0, 4, row_ptr1, col_idx1, offsets1).valid);

  // One 200-nonzero row among 15 empty ones: padding would store 8 * 200
  // words for 200 nonzeros, past the 4x + 64 blowup guard.
  std::vector<std::uint32_t> row_ptr(17, 200);
  row_ptr[0] = 0;
  std::vector<std::uint32_t> col_idx(200);
  std::vector<std::uint16_t> offsets(200);
  for (std::uint32_t i = 0; i < 200; ++i) col_idx[i] = i;
  EXPECT_FALSE(kernels::build_sell_plan(16, 256, row_ptr.data(), col_idx.data(), offsets.data())
                   .valid);
}

TEST(KernelSimd, SellPlanLayoutAndPadding) {
  // Ten rows (so two slices, the second partial) with lengths 2,0,3,1,...
  const std::uint32_t row_ptr[] = {0, 2, 2, 5, 6, 8, 10, 11, 13, 14, 16};
  const std::size_t rows = 10, nnz = 16;
  std::vector<std::uint32_t> col_idx(nnz);
  std::vector<std::uint16_t> offsets(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    col_idx[k] = static_cast<std::uint32_t>(k % 7);
    offsets[k] = static_cast<std::uint16_t>((k * 37) << 8);
  }
  const kernels::SellPlan p =
      kernels::build_sell_plan(rows, 7, row_ptr, col_idx.data(), offsets.data());
  ASSERT_TRUE(p.valid);
  ASSERT_EQ(p.slices.size(), 2u);
  EXPECT_EQ(p.slices[0].maxl, 3u);  // longest of rows 0..7
  EXPECT_EQ(p.slices[0].len[1], 0u);
  EXPECT_EQ(p.slices[1].len[2], 0u);  // past the last row
  ASSERT_EQ(p.fused.size(), 8u * p.slices[0].maxl + 8u * p.slices[1].maxl);
  for (std::size_t si = 0; si < p.slices.size(); ++si) {
    const auto& s = p.slices[si];
    for (std::size_t c = 0; c < 8; ++c) {
      for (std::uint32_t t = 0; t < s.maxl; ++t) {
        const std::uint32_t word = p.fused[s.base + 8 * t + c];
        if (s.len[c] == 0) {
          EXPECT_EQ(word, 0u) << "empty row slice " << si << " lane " << c;
          continue;
        }
        // Pad entries replicate the row's last real nonzero.
        const std::uint32_t k =
            row_ptr[si * 8 + c] + (t < s.len[c] ? t : s.len[c] - 1);
        EXPECT_EQ(word, (static_cast<std::uint32_t>(offsets[k]) << 16) | col_idx[k])
            << "slice " << si << " lane " << c << " t=" << t;
      }
    }
  }
}

#if MFLA_ENABLE_LUT

TEST(KernelSimd, SellSpmvMatchesPlannedScalar) {
  using T = Takum8;
  using Codec = ScalarCodec<T>;
  const auto& lut = kernels::accel::Lut8<T>::instance();
  Rng rng("sell_spmv", 1);
  // Irregular matrix: row r has r % 5 nonzeros (some rows empty), 40 rows.
  const std::size_t rows = 40, cols = 23;
  std::vector<std::uint32_t> row_ptr(rows + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<std::uint16_t> offsets;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = r % 5;
    for (std::size_t t = 0; t < len; ++t) {
      col_idx.push_back(static_cast<std::uint32_t>(rng.uniform_index(cols)));
      offsets.push_back(static_cast<std::uint16_t>((rng.next_u64() & 0xff) << 8));
    }
    row_ptr[r + 1] = static_cast<std::uint32_t>(col_idx.size());
  }
  const kernels::SellPlan plan =
      kernels::build_sell_plan(rows, cols, row_ptr.data(), col_idx.data(), offsets.data());
  ASSERT_TRUE(plan.valid);

  const auto xb = random_bytes(cols, 77);
  const std::uint8_t zero = Codec::to_bits(T(0));
  // Scalar planned recurrence, row at a time.
  std::vector<std::uint8_t> want(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t acc = zero;
    for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::uint8_t p = lut.mul_data()[offsets[k] | xb[col_idx[k]]];
      acc = lut.add_t_data()[(static_cast<std::size_t>(p) << 8) + acc];
    }
    want[r] = static_cast<std::uint8_t>(acc);
  }
  std::vector<std::uint8_t> got(rows, 0xee);
  kernels::spmv_sell_bits(lut.mul_data(), lut.add_t_data(), xb.data(), plan, rows, got.data(),
                          zero);
  for (std::size_t r = 0; r < rows; ++r) ASSERT_EQ(got[r], want[r]) << "row " << r;
}

#endif  // MFLA_ENABLE_LUT

/// Does CsrMatrix<T> hold a valid SELL-8 plan? Rebuilt from the public
/// arrays exactly as rebuild_spmv_plan() builds it; always false when the
/// format has no offset plan (wider formats, or LUTs compiled out).
template <typename T>
bool admits_sell_plan(const CsrMatrix<T>& a) {
  if constexpr (kernels::spmv_plan_supported<T>()) {
    const auto offsets = kernels::build_spmv_plan(a.values().data(), a.nnz());
    return kernels::build_sell_plan(a.rows(), a.cols(), a.row_ptr().data(), a.col_idx().data(),
                                    offsets.data())
        .valid;
  } else {
    return false;
  }
}

/// matvec (planned: SELL-8 here) against the generic kernels::spmv on a
/// Laplacian with an empty row every 11, on raw random x encodings.
template <typename T>
void check_sell_matvec_matches_spmv() {
  Rng rng("sell_matvec", 1);
  const CooMatrix lap = graph_laplacian_pipeline(erdos_renyi(97, 6.0 / 97.0, rng));
  CooMatrix pruned(lap.rows(), lap.cols());
  for (const auto& t : lap.triplets())
    if (t.row % 11 != 5) pruned.add(t.row, t.col, t.value);
  const auto a = CsrMatrix<double>::from_coo(pruned).convert<T>();
  if constexpr (kernels::spmv_plan_supported<T>()) {
    ASSERT_TRUE(admits_sell_plan(a));
  }
  const auto x = from_bytes<T>(random_bytes(a.cols(), 42));
  std::vector<T> y(a.rows()), want(a.rows());
  a.matvec(x.data(), y.data());
  kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                want.data());
  expect_same_bits(y, want, "matvec vs spmv");
}

TEST(KernelSimd, SpmvOnOffOFP8E4M3) { check_sell_matvec_matches_spmv<OFP8E4M3>(); }
TEST(KernelSimd, SpmvOnOffOFP8E5M2) { check_sell_matvec_matches_spmv<OFP8E5M2>(); }
TEST(KernelSimd, SpmvOnOffPosit8) { check_sell_matvec_matches_spmv<Posit8>(); }
TEST(KernelSimd, SpmvOnOffTakum8) { check_sell_matvec_matches_spmv<Takum8>(); }

TEST(KernelAccel, MatvecWithRejectedSellPlanMatchesSpmv) {
  // A 128-row matrix whose first row is dense and every other row holds
  // only its diagonal: SELL-8 padding would store 8 * 128 words for the
  // first slice alone, past the plan's 4x + 64 guard, so matvec takes the
  // row-at-a-time planned loop.
  using T = Posit8;
  const std::uint32_t n = 128;
  Rng rng("rejected_sell", 1);
  CooMatrix coo(n, n);
  for (std::uint32_t c = 0; c < n; ++c) coo.add(0, c, rng.normal());
  for (std::uint32_t r = 1; r < n; ++r) coo.add(r, r, rng.normal());
  const auto a = CsrMatrix<double>::from_coo(coo).convert<T>();
  ASSERT_FALSE(admits_sell_plan(a));
  ASSERT_EQ(a.has_spmv_plan(), kernels::spmv_plan_supported<T>());
  const auto x = from_bytes<T>(random_bytes(a.cols(), 43));
  std::vector<T> y(a.rows()), want(a.rows()), exact(a.rows());
  a.matvec(x.data(), y.data());
  kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                want.data());
  kernels::ref::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(),
                     x.data(), exact.data());
  expect_same_bits(y, want, "matvec vs spmv");
  expect_same_bits(y, exact, "matvec vs ref::spmv");
}

// -- End to end: experiment CSVs byte-identical, LUT on vs off --------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(KernelAccel, ExperimentCsvByteIdenticalLutOnOff) {
  std::vector<TestMatrix> ds;
  Rng r1(9001), r2(9002);
  ds.push_back(make_test_matrix("accel_er", "social", "soc",
                                graph_laplacian_pipeline(erdos_renyi(40, 0.16, r1))));
  ds.push_back(make_test_matrix("accel_sbm", "social", "soc",
                                graph_laplacian_pipeline(stochastic_block(44, 2, 0.35, 0.07, r2))));
  const std::vector<FormatId> formats = {
      FormatId::ofp8_e4m3, FormatId::ofp8_e5m2, FormatId::posit8,  FormatId::takum8,
      FormatId::float16,   FormatId::bfloat16,  FormatId::posit16, FormatId::takum16,
      FormatId::float64,
  };
  ExperimentConfig cfg;
  cfg.nev = 4;
  cfg.buffer = 2;
  cfg.max_restarts = 40;
  cfg.reference_max_restarts = 150;

  const auto run_to_csv = [&](bool lut_on, const std::string& tag) {
    LutGuard lut(lut_on);
    const auto results = run_experiment(ds, formats, cfg, ScheduleOptions{});
    const std::string path = "test_out/kernel_accel_" + tag + ".csv";
    write_results_csv(path, results);
    std::string data = slurp(path);
    std::remove(path.c_str());
    return data;
  };

  const std::string csv_on = run_to_csv(true, "on");
  const std::string csv_off = run_to_csv(false, "off");
  EXPECT_FALSE(csv_on.empty());
  EXPECT_EQ(csv_on, csv_off);
}

}  // namespace
}  // namespace mfla

// Bit-identity of the kernel layer's LUT fast paths (kernels/accel.hpp)
// against the exact engines:
//   * exhaustive add/mul over all 256x256 operand pairs for every 8-bit
//     format,
//   * exhaustive decode (double and, for tapered formats, Unpacked) over
//     all 65536 encodings for every 16-bit format,
//   * sampled operand pairs through the 16-bit fast-path ops,
//   * whole kernels (dot/nrm2/axpy/scal/spmv) with LUTs on vs off,
//   * the symmetric 8-bit add table the resident grid indexes transposed,
//   * CsrMatrix::matvec with LUTs on vs off and against kernels::ref::spmv
//     on raw encodings (NaN/NaR, infinities and -0 among them).
//   * the experiment's eigensolves on its two social graphs, production
//     (resident) path against the exact engine over T with LUTs off.
// The workspace-matrix solves get the same comparison in
// tests/test_arnoldi_workspace.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arith/format_registry.hpp"
#include "core/krylov_schur.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "kernels/accel.hpp"
#include "kernels/simd.hpp"
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
  using Codec = ScalarCodec<T>;
  const auto& lut = Lut8<T>::instance();
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
}

TEST(KernelAccel, Lut8ExhaustiveOFP8E4M3) { check_lut8_exhaustive<OFP8E4M3>(); }
TEST(KernelAccel, Lut8ExhaustiveOFP8E5M2) { check_lut8_exhaustive<OFP8E5M2>(); }
TEST(KernelAccel, Lut8ExhaustivePosit8) { check_lut8_exhaustive<Posit8>(); }
TEST(KernelAccel, Lut8ExhaustiveTakum8) { check_lut8_exhaustive<Takum8>(); }

// -- Exhaustive 16-bit decode tables ----------------------------------------

template <typename T>
void check_dec16_exhaustive() {
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
}

TEST(KernelAccel, Dec16ExhaustiveFloat16) { check_dec16_exhaustive<Float16>(); }
TEST(KernelAccel, Dec16ExhaustiveBFloat16) { check_dec16_exhaustive<BFloat16>(); }
TEST(KernelAccel, Dec16ExhaustivePosit16) { check_dec16_exhaustive<Posit16>(); }
TEST(KernelAccel, Dec16ExhaustiveTakum16) { check_dec16_exhaustive<Takum16>(); }

// -- Sampled 16-bit fast-path operations ------------------------------------

template <typename T>
void check_ops16_sampled() {
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

// -- The experiment's solves, production path vs exact engine ----------------

/// Every field of one solve's result that the experiment CSV is derived
/// from must carry the same bits on both paths.
template <typename T>
void expect_same_solve(const PartialSchurResult<T>& prod, const PartialSchurResult<T>& exact,
                       const char* graph) {
  using Codec = ScalarCodec<T>;
  const std::string at = std::string(NumTraits<T>::name()) + " on " + graph;
  EXPECT_EQ(prod.converged, exact.converged) << at;
  EXPECT_EQ(prod.nconverged, exact.nconverged) << at;
  EXPECT_EQ(prod.restarts, exact.restarts) << at;
  EXPECT_EQ(prod.matvecs, exact.matvecs) << at;
  EXPECT_EQ(prod.failure, exact.failure) << at;
  ASSERT_EQ(prod.eig_re.size(), exact.eig_re.size()) << at;
  ASSERT_EQ(prod.eig_im.size(), exact.eig_im.size()) << at;
  for (std::size_t i = 0; i < prod.eig_re.size(); ++i) {
    EXPECT_TRUE(same_double_bits(prod.eig_re[i], exact.eig_re[i])) << at << " eig_re " << i;
    EXPECT_TRUE(same_double_bits(prod.eig_im[i], exact.eig_im[i])) << at << " eig_im " << i;
  }
  ASSERT_EQ(prod.q.rows(), exact.q.rows()) << at;
  ASSERT_EQ(prod.q.cols(), exact.q.cols()) << at;
  for (std::size_t j = 0; j < prod.q.cols(); ++j)
    for (std::size_t i = 0; i < prod.q.rows(); ++i)
      ASSERT_EQ(Codec::to_bits(prod.q(i, j)), Codec::to_bits(exact.q(i, j))) << at << " q";
  ASSERT_EQ(prod.r.rows(), exact.r.rows()) << at;
  ASSERT_EQ(prod.r.cols(), exact.r.cols()) << at;
  for (std::size_t j = 0; j < prod.r.cols(); ++j)
    for (std::size_t i = 0; i < prod.r.rows(); ++i)
      ASSERT_EQ(Codec::to_bits(prod.r(i, j)), Codec::to_bits(exact.r(i, j))) << at << " r";
}

// This used to byte-compare the experiment CSV of two sweeps, one with the
// LUTs on and one with them off. No sweep arithmetic reads the switch any
// more (a resident solve reads the tables either way), so that compared a
// run with itself. It now runs the same graphs, formats and solver options
// as that sweep (nev 4 + buffer 2, 40 restarts) through partialschur<T>
// and through detail::partialschur_core<T> over T with every fast path
// off, and demands the same bits from both.
TEST(KernelAccel, ExperimentCsvByteIdenticalLutOnOff) {
  Rng r1(9001), r2(9002);
  const CsrMatrix<double> er =
      CsrMatrix<double>::from_coo(graph_laplacian_pipeline(erdos_renyi(40, 0.16, r1)));
  const CsrMatrix<double> sbm = CsrMatrix<double>::from_coo(
      graph_laplacian_pipeline(stochastic_block(44, 2, 0.35, 0.07, r2)));

  const auto check = [](auto tag, const CsrMatrix<double>& ad, const char* graph) {
    using T = typename decltype(tag)::type;
    const CsrMatrix<T> a = ad.convert<T>();
    std::vector<double> start(a.rows());
    Rng rng(graph, a.rows());
    double nrm2 = 0.0;
    for (double& x : start) {
      x = rng.normal();
      nrm2 += x * x;
    }
    for (double& x : start) x /= std::sqrt(nrm2);
    PartialSchurOptions opts;
    opts.nev = 6;
    opts.which = Which::largest_magnitude;
    opts.tolerance = NumTraits<T>::default_tolerance();
    opts.max_restarts = 40;
    opts.start_vector = &start;
    opts.seed = 0x517e;
    const PartialSchurResult<T> prod = partialschur<T>(a, opts);
    LutGuard lut(false);
    const PartialSchurResult<T> exact = detail::partialschur_core<T>(a, opts);
    expect_same_solve(prod, exact, graph);
  };
  for (const auto& [ad, graph] : {std::pair{&er, "accel_er"}, std::pair{&sbm, "accel_sbm"}}) {
    check(TypeTag<OFP8E4M3>{}, *ad, graph);
    check(TypeTag<OFP8E5M2>{}, *ad, graph);
    check(TypeTag<Posit8>{}, *ad, graph);
    check(TypeTag<Takum8>{}, *ad, graph);
    check(TypeTag<Float16>{}, *ad, graph);
    check(TypeTag<BFloat16>{}, *ad, graph);
    check(TypeTag<Posit16>{}, *ad, graph);
    check(TypeTag<Takum16>{}, *ad, graph);
  }
}

// -- 8-bit tables and SpMV on raw encodings ------------------------------------
//
// These tests keep the KernelSimd suite name they were first registered
// under, from when they also swept the vector ISA rungs.

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

/// The + table is symmetric, add[(a << 8) | b] == add[(b << 8) | a], which
/// lets the 8-bit resident grid index it (b << 8) | a with an accumulator
/// in the low byte. Lut8Exhaustive* check one order against the engine.
template <typename T>
void check_add_transpose() {
  (void)Lut8<T>::instance();
  const auto& add = detail::lut8_data<T>.add;
  for (std::size_t a = 0; a < 256; ++a)
    for (std::size_t b = 0; b < 256; ++b)
      ASSERT_EQ(add[(b << 8) | a], add[(a << 8) | b])
          << NumTraits<T>::name() << " at (" << a << ", " << b << ")";
}

TEST(KernelSimd, AddTransposeOFP8E4M3) { check_add_transpose<OFP8E4M3>(); }
TEST(KernelSimd, AddTransposeOFP8E5M2) { check_add_transpose<OFP8E5M2>(); }
TEST(KernelSimd, AddTransposePosit8) { check_add_transpose<Posit8>(); }
TEST(KernelSimd, AddTransposeTakum8) { check_add_transpose<Takum8>(); }

/// CsrMatrix::matvec with the LUTs on and off, and kernels::ref::spmv, on
/// a Laplacian with an empty row every 11 and raw random x encodings.
template <typename T>
void check_matvec_on_off() {
  Rng rng("matvec_on_off", 1);
  const CooMatrix lap = graph_laplacian_pipeline(erdos_renyi(97, 6.0 / 97.0, rng));
  CooMatrix pruned(lap.rows(), lap.cols());
  for (const auto& t : lap.triplets())
    if (t.row % 11 != 5) pruned.add(t.row, t.col, t.value);
  const auto a = CsrMatrix<double>::from_coo(pruned).convert<T>();
  const auto x = from_bytes<T>(random_bytes(a.cols(), 42));
  std::vector<T> on(a.rows()), off(a.rows()), exact(a.rows());
  {
    LutGuard lut(true);
    a.matvec(x.data(), on.data());
  }
  {
    LutGuard lut(false);
    a.matvec(x.data(), off.data());
  }
  kernels::ref::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(),
                     x.data(), exact.data());
  expect_same_bits(on, off, "matvec LUT on vs off");
  expect_same_bits(on, exact, "matvec vs ref::spmv");
}

TEST(KernelSimd, SpmvOnOffOFP8E4M3) { check_matvec_on_off<OFP8E4M3>(); }
TEST(KernelSimd, SpmvOnOffOFP8E5M2) { check_matvec_on_off<OFP8E5M2>(); }
TEST(KernelSimd, SpmvOnOffPosit8) { check_matvec_on_off<Posit8>(); }
TEST(KernelSimd, SpmvOnOffTakum8) { check_matvec_on_off<Takum8>(); }

}  // namespace
}  // namespace mfla

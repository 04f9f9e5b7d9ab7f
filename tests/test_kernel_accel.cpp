// The 8-bit tables and the experiment's solves against the exact engines:
//   * the experiment's eigensolves on its two social graphs, production
//     (resident) path against the solver body over T, which runs the exact
//     engine end to end,
//   * the symmetric 8-bit add table the resident grid indexes transposed,
//   * the kernels' provenance constants.
// The workspace-matrix solves get the same comparison in
// tests/test_arnoldi_workspace.cpp; every 8-bit table entry is checked
// through the grid by OnGridOracle.OnGrid8AllPairs (tests/test_on_grid.cpp).
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
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

/// NaN-safe double comparison: equal bit patterns.
[[nodiscard]] bool same_double_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// -- The experiment's solves, production path vs exact engine ----------------

/// Every field of one solve's result that the experiment CSV is derived
/// from must carry the same bits on both paths.
template <typename T>
void expect_same_solve(const PartialSchurResult<T>& prod, const PartialSchurResult<T>& exact,
                       const char* graph) {
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
      ASSERT_EQ(prod.q(i, j).bits(), exact.q(i, j).bits()) << at << " q";
  ASSERT_EQ(prod.r.rows(), exact.r.rows()) << at;
  ASSERT_EQ(prod.r.cols(), exact.r.cols()) << at;
  for (std::size_t j = 0; j < prod.r.cols(); ++j)
    for (std::size_t i = 0; i < prod.r.rows(); ++i)
      ASSERT_EQ(prod.r(i, j).bits(), exact.r(i, j).bits()) << at << " r";
}

// This used to byte-compare the experiment CSV of two sweeps, one with the
// LUTs on and one with them off. It now runs the same graphs, formats and
// solver options as that sweep (nev 4 + buffer 2, 40 restarts) through
// partialschur<T> and through detail::partialschur_core<T> over T, whose
// kernels run the exact engine, and demands the same bits from both.
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

// -- 8-bit tables and provenance ------------------------------------------------
//
// These tests keep the KernelSimd suite name they were first registered
// under, from when they also swept the vector ISA rungs.

/// The provenance report names the one kernel path there is, and the 8-bit
/// grid always reads its tables.
TEST(KernelSimd, CapsConsistent) {
  static_assert(std::string_view(kernels::simd_caps().isa) == "scalar");
  static_assert(kernels::lut_enabled());
  EXPECT_STREQ(kernels::simd_caps().isa, "scalar");
}

/// The + table is symmetric, add[(a << 8) | b] == add[(b << 8) | a], which
/// lets the 8-bit resident grid index it (b << 8) | a with an accumulator
/// in the low byte. OnGridOracle.OnGrid8AllPairs checks both orders against
/// the engine.
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

}  // namespace
}  // namespace mfla

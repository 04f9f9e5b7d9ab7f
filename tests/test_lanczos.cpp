// Thick-restart Lanczos tests: agreement with partialschur and the dense
// oracle, orthogonality, locking, low-precision operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "arith/posit.hpp"
#include "arith/takum.hpp"
#include "core/lanczos.hpp"
#include "dense/jacobi.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

CsrMatrix<double> random_sparse_symmetric(std::size_t n, double density, Rng& rng) {
  CooMatrix coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i), rng.normal());
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < density) {
        const double v = rng.normal();
        coo.add(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), v);
        coo.add(static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(i), v);
      }
    }
  }
  return CsrMatrix<double>::from_coo(coo);
}

class LanczosSizes : public ::testing::TestWithParam<int> {};

TEST_P(LanczosSizes, AgreesWithArnoldi) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(1100 + GetParam());
  const auto a = random_sparse_symmetric(n, 0.1, rng);
  PartialSchurOptions opts;
  opts.nev = 6;
  opts.tolerance = 1e-10;
  opts.max_restarts = 250;
  const auto rl = lanczos_eigs<double>(a, opts);
  ASSERT_TRUE(rl.converged) << rl.failure;
  const auto ra = partialschur<double>(a, opts);
  ASSERT_TRUE(ra.converged) << ra.failure;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(rl.eig_re[i], ra.eig_re[i], 1e-7 * std::abs(ra.eig_re[i]) + 1e-8);
    EXPECT_DOUBLE_EQ(rl.eig_im[i], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LanczosSizes, ::testing::Values(40, 80, 160));

TEST(Lanczos, RitzVectorsOrthonormalAndAccurate) {
  Rng rng(1101);
  const auto a = random_sparse_symmetric(100, 0.08, rng);
  PartialSchurOptions opts;
  opts.nev = 8;
  opts.tolerance = 1e-11;
  opts.max_restarts = 300;
  const auto r = lanczos_eigs<double>(a, opts);
  ASSERT_TRUE(r.converged) << r.failure;
  const std::size_t k = r.q.cols();
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      double d = 0;
      for (std::size_t i = 0; i < 100; ++i) d += r.q(i, p) * r.q(i, q);
      EXPECT_NEAR(d, p == q ? 1.0 : 0.0, 1e-8);
    }
  // Eigenpair residuals: ||A q - lambda q||.
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> qj(100), aq(100);
    for (std::size_t i = 0; i < 100; ++i) qj[i] = r.q(i, j);
    a.matvec(qj.data(), aq.data());
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_NEAR(aq[i], r.eig_re[j] * qj[i], 1e-7) << j;
    }
  }
}

TEST(Lanczos, OrderingModes) {
  CooMatrix coo(9, 9);
  const double d[9] = {-8, -4, -2, -0.5, 0.25, 1, 3, 5, 9};
  for (std::uint32_t i = 0; i < 9; ++i) coo.add(i, i, d[i]);
  const auto a = CsrMatrix<double>::from_coo(coo);
  PartialSchurOptions opts;
  opts.nev = 2;
  opts.mindim = 4;
  opts.maxdim = 8;
  opts.tolerance = 1e-12;
  opts.max_restarts = 200;

  opts.which = Which::largest_magnitude;
  auto r = lanczos_eigs<double>(a, opts);
  ASSERT_TRUE(r.converged) << r.failure;
  EXPECT_NEAR(r.eig_re[0], 9.0, 1e-9);
  EXPECT_NEAR(r.eig_re[1], -8.0, 1e-9);

  opts.which = Which::smallest_real;
  r = lanczos_eigs<double>(a, opts);
  ASSERT_TRUE(r.converged) << r.failure;
  EXPECT_NEAR(r.eig_re[0], -8.0, 1e-9);
  EXPECT_NEAR(r.eig_re[1], -4.0, 1e-9);
}

TEST(Lanczos, LaplacianSpectrumBounds) {
  Rng rng(1102);
  const CooMatrix lap = graph_laplacian_pipeline(erdos_renyi(130, 0.06, rng));
  const auto a = CsrMatrix<double>::from_coo(lap);
  PartialSchurOptions opts;
  opts.nev = 10;
  opts.tolerance = 1e-10;
  opts.max_restarts = 200;
  const auto r = lanczos_eigs<double>(a, opts);
  ASSERT_TRUE(r.converged) << r.failure;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_GE(r.eig_re[i], -1e-9);
    EXPECT_LE(r.eig_re[i], 2.0 + 1e-9);
  }
}

TEST(Lanczos, FailureReportedGracefully) {
  Rng rng(1103);
  const auto a = random_sparse_symmetric(80, 0.05, rng);
  PartialSchurOptions opts;
  opts.nev = 8;
  opts.tolerance = 1e-15;
  opts.max_restarts = 1;
  const auto r = lanczos_eigs<double>(a, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.failure.empty());
}

TEST(Lanczos, TinyMatrixConvergesWithOneRitzVectorKept) {
  // n = 3 caps the basis at maxdim = 2, so the default mindim clamps all
  // the way down; a restart must still keep one Ritz vector (as
  // partialschur does) or every cycle starts over and never converges.
  CooMatrix coo(3, 3);
  for (std::uint32_t i = 0; i < 3; ++i) coo.add(i, i, static_cast<double>(i + 1));
  const auto a = CsrMatrix<double>::from_coo(coo);
  PartialSchurOptions opts;
  opts.nev = 1;
  opts.max_restarts = 50;
  const auto rl = lanczos_eigs<double>(a, opts);
  ASSERT_TRUE(rl.converged) << rl.failure;
  EXPECT_NEAR(rl.eig_re[0], 3.0, 1e-12);
  const auto ra = partialschur<double>(a, opts);
  ASSERT_TRUE(ra.converged) << ra.failure;
  EXPECT_NEAR(ra.eig_re[0], 3.0, 1e-12);
}

template <typename T>
void lanczos_low_precision(double tol_eig) {
  Rng rng(1104);
  const CooMatrix lap = graph_laplacian_pipeline(stochastic_block(90, 3, 0.3, 0.02, rng));
  const auto ad = CsrMatrix<double>::from_coo(lap);
  const auto at = ad.convert<T>();
  PartialSchurOptions opts;
  opts.nev = 5;
  opts.tolerance = NumTraits<T>::default_tolerance();
  opts.max_restarts = 150;
  const auto rt = lanczos_eigs<T>(at, opts);
  ASSERT_TRUE(rt.converged) << NumTraits<T>::name() << ": " << rt.failure;
  const auto rd = lanczos_eigs<double>(ad, opts);
  ASSERT_TRUE(rd.converged);
  EXPECT_NEAR(rt.eig_re[0], rd.eig_re[0], tol_eig) << NumTraits<T>::name();
}

TEST(LanczosLowPrecision, Float16) { lanczos_low_precision<Float16>(0.05); }
TEST(LanczosLowPrecision, Posit16) { lanczos_low_precision<Posit16>(0.05); }
TEST(LanczosLowPrecision, Takum16) { lanczos_low_precision<Takum16>(0.05); }
TEST(LanczosLowPrecision, Takum32) { lanczos_low_precision<Takum32>(1e-4); }

TEST(Lanczos, SharedStartVectorMatchesArnoldiTrajectory) {
  // Same options + same start vector: Lanczos and Arnoldi converge to the
  // same invariant subspace (eigenvalues equal to solver tolerance).
  Rng rng(1105);
  const auto a = random_sparse_symmetric(70, 0.1, rng);
  Rng sr(1106);
  const auto sv = sr.unit_vector(70);
  PartialSchurOptions opts;
  opts.nev = 4;
  opts.tolerance = 1e-11;
  opts.max_restarts = 250;
  opts.start_vector = &sv;
  const auto rl = lanczos_eigs<double>(a, opts);
  const auto ra = partialschur<double>(a, opts);
  ASSERT_TRUE(rl.converged && ra.converged);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(rl.eig_re[i], ra.eig_re[i], 1e-8);
}

}  // namespace
}  // namespace mfla

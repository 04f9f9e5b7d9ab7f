// Real Schur decomposition tests: Francis QR vs the Jacobi oracle,
// quasi-triangular structure, reordering (1x1 and 2x2 block swaps), and
// low-precision orthogonality regressions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "arith/posit.hpp"
#include "arith/takum.hpp"
#include "kernels/vector_ops.hpp"
#include "dense_products.hpp"
#include "dense/hessenberg.hpp"
#include "dense/jacobi.hpp"
#include "dense/schur.hpp"
#include "dense/schur_reorder.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

DenseMatrix<double> random_symmetric(std::size_t n, Rng& rng) {
  DenseMatrix<double> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      m(i, j) = rng.normal();
      m(j, i) = m(i, j);
    }
  return m;
}

DenseMatrix<double> random_general(std::size_t n, Rng& rng) {
  DenseMatrix<double> m(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) m(i, j) = rng.normal();
  return m;
}

double residual(const DenseMatrix<double>& a, const DenseMatrix<double>& q,
                const DenseMatrix<double>& t) {
  const auto aq = matmul(a, q);
  const auto qt = matmul(q, t);
  double r = 0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) r = std::max(r, std::abs(aq(i, j) - qt(i, j)));
  return r;
}

double orth_defect(const DenseMatrix<double>& q) {
  const auto qtq = matmul_tn(q, q);
  double r = 0;
  for (std::size_t j = 0; j < q.cols(); ++j)
    for (std::size_t i = 0; i < q.cols(); ++i)
      r = std::max(r, std::abs(qtq(i, j) - (i == j ? 1.0 : 0.0)));
  return r;
}

struct SchurPack {
  DenseMatrix<double> t, q;
};

SchurPack full_schur(const DenseMatrix<double>& a) {
  SchurPack p{a, DenseMatrix<double>::identity(a.rows())};
  EXPECT_TRUE(hessenberg_reduce(p.t, p.q));
  const auto st = hessenberg_to_schur(p.t, p.q);
  EXPECT_TRUE(st.ok);
  return p;
}

class SchurSymmetricSizes : public ::testing::TestWithParam<int> {};

TEST_P(SchurSymmetricSizes, MatchesJacobi) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(100 + GetParam());
  const auto a = random_symmetric(n, rng);
  const auto p = full_schur(a);
  EXPECT_LT(residual(a, p.q, p.t), 1e-12 * static_cast<double>(n));
  EXPECT_LT(orth_defect(p.q), 1e-13 * static_cast<double>(n));
  // Eigenvalues match Jacobi.
  std::vector<double> re, im;
  schur_eigenvalues(p.t, re, im);
  for (const double v : im) EXPECT_NEAR(v, 0.0, 1e-10);
  auto aj = a;
  DenseMatrix<double> vj;
  ASSERT_GT(jacobi_eigen(aj, vj), 0);
  std::vector<double> ej(n);
  for (std::size_t i = 0; i < n; ++i) ej[i] = aj(i, i);
  std::sort(re.begin(), re.end());
  std::sort(ej.begin(), ej.end());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(re[i], ej[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SchurSymmetricSizes, ::testing::Values(2, 3, 4, 6, 9, 16, 24, 32));

class SchurGeneralSizes : public ::testing::TestWithParam<int> {};

TEST_P(SchurGeneralSizes, QuasiTriangularDecomposition) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(200 + GetParam());
  const auto a = random_general(n, rng);
  const auto p = full_schur(a);
  EXPECT_LT(residual(a, p.q, p.t), 1e-11 * static_cast<double>(n));
  EXPECT_LT(orth_defect(p.q), 1e-12 * static_cast<double>(n));
  // Quasi-triangular: nothing below the first subdiagonal; no adjacent
  // 2x2 blocks overlapping.
  for (std::size_t j = 0; j + 2 < n; ++j)
    for (std::size_t i = j + 2; i < n; ++i) EXPECT_DOUBLE_EQ(p.t(i, j), 0.0);
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (p.t(i + 1, i) != 0.0) {
      EXPECT_DOUBLE_EQ(p.t(i + 2, i + 1), 0.0);
    }
  }
  // Complex eigenvalues come in conjugate pairs; trace preserved.
  std::vector<double> re, im;
  schur_eigenvalues(p.t, re, im);
  double tr_t = 0, tr_a = 0, im_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tr_t += re[i];
    tr_a += a(i, i);
    im_sum += im[i];
  }
  EXPECT_NEAR(tr_t, tr_a, 1e-9);
  EXPECT_NEAR(im_sum, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SchurGeneralSizes, ::testing::Values(2, 3, 5, 8, 12, 20, 30));

TEST(Schur, KnownRotationEigenvalues) {
  // [[cos, -sin],[sin, cos]] scaled by r has eigenvalues r e^{±iθ}.
  DenseMatrix<double> a(2, 2);
  const double th = 0.7, r = 2.0;
  a(0, 0) = r * std::cos(th);
  a(0, 1) = -r * std::sin(th);
  a(1, 0) = r * std::sin(th);
  a(1, 1) = r * std::cos(th);
  auto p = full_schur(a);
  std::vector<double> re, im;
  schur_eigenvalues(p.t, re, im);
  EXPECT_NEAR(re[0], r * std::cos(th), 1e-12);
  EXPECT_NEAR(std::abs(im[0]), r * std::sin(th), 1e-12);
  EXPECT_NEAR(im[0] + im[1], 0.0, 1e-13);
}

TEST(Schur, DefectiveJordanBlock) {
  // [[1,1],[0,1]] (defective): must still produce a valid Schur form.
  DenseMatrix<double> a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 1;
  a(1, 1) = 1;
  auto p = full_schur(a);
  std::vector<double> re, im;
  schur_eigenvalues(p.t, re, im);
  EXPECT_NEAR(re[0], 1.0, 1e-8);
  EXPECT_NEAR(re[1], 1.0, 1e-8);
}

// ---- Reordering -----------------------------------------------------------

TEST(SchurReorder, SortsRealEigenvaluesDescending) {
  Rng rng(300);
  const auto a = random_symmetric(14, rng);
  auto p = full_schur(a);
  reorder_schur<double>(p.t, p.q, [](const SchurBlock& x, const SchurBlock& y) {
    return std::abs(x.re) > std::abs(y.re);
  });
  EXPECT_LT(residual(a, p.q, p.t), 1e-11);
  EXPECT_LT(orth_defect(p.q), 1e-12);
  std::vector<double> re, im;
  schur_eigenvalues(p.t, re, im);
  for (std::size_t i = 0; i + 1 < re.size(); ++i)
    EXPECT_GE(std::abs(re[i]), std::abs(re[i + 1]) - 1e-10);
}

TEST(SchurReorder, MovesComplexPairs) {
  Rng rng(301);
  const auto a = random_general(12, rng);
  auto p = full_schur(a);
  reorder_schur<double>(p.t, p.q, [](const SchurBlock& x, const SchurBlock& y) {
    return std::hypot(x.re, x.im) > std::hypot(y.re, y.im);
  });
  EXPECT_LT(residual(a, p.q, p.t), 1e-10);
  EXPECT_LT(orth_defect(p.q), 1e-11);
  const auto blocks = schur_blocks(p.t);
  for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
    EXPECT_GE(std::hypot(blocks[b].re, blocks[b].im),
              std::hypot(blocks[b + 1].re, blocks[b + 1].im) - 1e-9);
  }
}

TEST(SchurReorder, SmallestFirstOrdering) {
  Rng rng(302);
  const auto a = random_symmetric(10, rng);
  auto p = full_schur(a);
  reorder_schur<double>(p.t, p.q, [](const SchurBlock& x, const SchurBlock& y) {
    return std::abs(x.re) < std::abs(y.re);
  });
  std::vector<double> re, im;
  schur_eigenvalues(p.t, re, im);
  for (std::size_t i = 0; i + 1 < re.size(); ++i)
    EXPECT_LE(std::abs(re[i]), std::abs(re[i + 1]) + 1e-10);
  EXPECT_LT(residual(a, p.q, p.t), 1e-11);
}

// ---- Low-precision orthogonality regression ------------------------------------
// The dlarfg-style reflector must keep Q orthogonal in tapered formats
// (the textbook beta = 2 v0^2/(sigma + v0^2) variant collapses in posit32:
// v0^2 lands at the square of a small scale where posits carry few bits).

template <typename T>
double low_precision_orth(std::size_t n, unsigned seed) {
  Rng rng(seed);
  DenseMatrix<T> h(n, n);
  // Symmetric tridiagonal-ish Hessenberg with small subdiagonals, the shape
  // that triggered the regression.
  for (std::size_t i = 0; i < n; ++i) {
    h(i, i) = NumTraits<T>::from_double(1.0 + 0.3 * rng.normal());
    if (i + 1 < n) {
      const double s = rng.log_uniform(-6.0, -0.5);
      h(i, i + 1) = NumTraits<T>::from_double(s);
      h(i + 1, i) = NumTraits<T>::from_double(s);
    }
  }
  auto q = DenseMatrix<T>::identity(n);
  const auto st = hessenberg_to_schur(h, q);
  EXPECT_TRUE(st.ok);
  double defect = 0;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b <= a; ++b) {
      double d = 0;
      for (std::size_t i = 0; i < n; ++i)
        d += NumTraits<T>::to_double(q(i, a)) * NumTraits<T>::to_double(q(i, b));
      if (a == b) d -= 1.0;
      defect = std::max(defect, std::abs(d));
    }
  return defect;
}

TEST(SchurLowPrecision, Posit32KeepsQOrthogonal) {
  EXPECT_LT(low_precision_orth<Posit32>(20, 401), 1e-4);
}
TEST(SchurLowPrecision, Takum32KeepsQOrthogonal) {
  EXPECT_LT(low_precision_orth<Takum32>(20, 402), 1e-4);
}
TEST(SchurLowPrecision, Posit64KeepsQOrthogonal) {
  EXPECT_LT(low_precision_orth<Posit64>(20, 403), 1e-12);
}
TEST(SchurLowPrecision, Float32Baseline) {
  EXPECT_LT(low_precision_orth<float>(20, 404), 1e-4);
}

}  // namespace
}  // namespace mfla

// Dense linear algebra tests: matrix container, BLAS kernels, Hessenberg
// reduction, Jacobi EVD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "arith/posit.hpp"
#include "kernels/vector_ops.hpp"
#include "dense_products.hpp"
#include "dense/hessenberg.hpp"
#include "dense/jacobi.hpp"
#include "dense/matrix.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

DenseMatrix<double> random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  DenseMatrix<double> m(r, c);
  for (std::size_t j = 0; j < c; ++j)
    for (std::size_t i = 0; i < r; ++i) m(i, j) = rng.normal();
  return m;
}

DenseMatrix<double> random_symmetric(std::size_t n, Rng& rng) {
  DenseMatrix<double> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      m(i, j) = rng.normal();
      m(j, i) = m(i, j);
    }
  return m;
}

TEST(DenseMatrix, BasicsAndIdentity) {
  auto m = DenseMatrix<double>::identity(4);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m(2, 2), 1.0);
  EXPECT_EQ(m(2, 1), 0.0);
  m(1, 3) = 7.0;
  EXPECT_EQ(m.transposed()(3, 1), 7.0);
  const auto t = m.top_left(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t(1, 1), 1.0);
}

TEST(Blas, DotAxpyScalNrm2) {
  const std::size_t n = 100;
  std::vector<double> x(n, 2.0), y(n, 3.0);
  EXPECT_DOUBLE_EQ(kernels::dot(n, x.data(), y.data()), 600.0);
  kernels::axpy(n, 0.5, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  kernels::scal(n, 2.0, x.data());
  EXPECT_DOUBLE_EQ(x[10], 4.0);
  std::vector<double> e(n, 0.0);
  e[3] = -5.0;
  EXPECT_DOUBLE_EQ(kernels::nrm2(n, e.data()), 5.0);
}

TEST(Blas, MatmulAssociativityWithIdentity) {
  Rng rng(42);
  const auto a = random_matrix(6, 6, rng);
  const auto i6 = DenseMatrix<double>::identity(6);
  const auto ai = matmul(a, i6);
  for (std::size_t j = 0; j < 6; ++j)
    for (std::size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(ai(i, j), a(i, j));
  const auto ata = matmul_tn(a, a);
  for (std::size_t j = 0; j < 6; ++j)
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_NEAR(ata(i, j), kernels::dot(6, a.col(i), a.col(j)), 1e-13);
}

TEST(Blas, UpdateBasis) {
  Rng rng(43);
  auto v = random_matrix(10, 5, rng);
  const auto v0 = v;
  auto w = random_matrix(5, 3, rng);
  std::vector<double> scratch;
  kernels::update_basis(v, w, w.rows(), 3, scratch);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 10; ++i) {
      double acc = 0;
      for (std::size_t l = 0; l < 5; ++l) acc += v0(i, l) * w(l, j);
      EXPECT_NEAR(v(i, j), acc, 1e-13);
    }
  // Columns beyond `keep` are untouched.
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(v(i, 4), v0(i, 4));
}

TEST(Hessenberg, PatternAndSimilarity) {
  Rng rng(45);
  for (const std::size_t n : {3u, 5u, 10u, 24u}) {
    auto a = random_matrix(n, n, rng);
    const auto a0 = a;
    auto q = DenseMatrix<double>::identity(n);
    ASSERT_TRUE(hessenberg_reduce(a, q));
    for (std::size_t j = 0; j + 2 < n; ++j)
      for (std::size_t i = j + 2; i < n; ++i) EXPECT_NEAR(a(i, j), 0.0, 1e-13);
    // Q orthogonal and Q H Q^T == A0.
    const auto qtq = matmul_tn(q, q);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(qtq(i, j), i == j ? 1.0 : 0.0, 1e-12);
    const auto rec = matmul(matmul(q, a), q.transposed());
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec(i, j), a0(i, j), 1e-11);
  }
}

TEST(Hessenberg, SpikeShapeInput) {
  // The Krylov-Schur restart feeds (triangular + spike row) matrices.
  Rng rng(46);
  const std::size_t n = 12;
  DenseMatrix<double> a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i <= j; ++i) a(i, j) = rng.normal();
    a(7, j) = rng.normal();  // spike row
  }
  const auto a0 = a;
  auto q = DenseMatrix<double>::identity(n);
  ASSERT_TRUE(hessenberg_reduce(a, q));
  const auto rec = matmul(matmul(q, a), q.transposed());
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec(i, j), a0(i, j), 1e-11);
}

class JacobiSizes : public ::testing::TestWithParam<int> {};

TEST_P(JacobiSizes, DiagonalizesSymmetric) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(47 + GetParam());
  auto a = random_symmetric(n, rng);
  const auto a0 = a;
  DenseMatrix<double> v;
  const int sweeps = jacobi_eigen(a, v);
  ASSERT_GT(sweeps, 0);
  // A0 V = V D.
  const auto av = matmul(a0, v);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(av(i, j), v(i, j) * a(j, j), 1e-10);
  // Eigenvalue sum = trace.
  double tr = 0, sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tr += a0(i, i);
    sum += a(i, i);
  }
  EXPECT_NEAR(tr, sum, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiSizes, ::testing::Values(2, 3, 5, 8, 13, 21, 34));

TEST(Jacobi, KnownSpectrum) {
  // 2x2 [[2,1],[1,2]] has eigenvalues 1 and 3.
  DenseMatrix<double> a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  DenseMatrix<double> v;
  ASSERT_GT(jacobi_eigen(a, v), 0);
  std::vector<double> eigs{a(0, 0), a(1, 1)};
  std::sort(eigs.begin(), eigs.end());
  EXPECT_NEAR(eigs[0], 1.0, 1e-14);
  EXPECT_NEAR(eigs[1], 3.0, 1e-14);
}

TEST(DenseLowPrecision, KernelsRunInPosit16) {
  // The kernels are format-generic; smoke the posit16 instantiation.
  const std::size_t n = 32;
  std::vector<Posit16> x(n), y(n);
  Rng rng(48);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = Posit16(rng.normal());
    y[i] = Posit16(rng.normal());
  }
  const Posit16 d = kernels::dot(n, x.data(), y.data());
  double dd = 0;
  for (std::size_t i = 0; i < n; ++i) dd += x[i].to_double() * y[i].to_double();
  EXPECT_NEAR(d.to_double(), dd, 0.02 * std::abs(dd) + 0.02);
  const Posit16 nr = kernels::nrm2(n, x.data());
  EXPECT_GT(nr.to_double(), 0.0);
}

}  // namespace
}  // namespace mfla

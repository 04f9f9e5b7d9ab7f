// Real Schur decomposition of an upper Hessenberg matrix via the Francis
// implicit double-shift QR iteration (LAPACK dlahqr-style, simplified for
// the small Rayleigh-quotient matrices that arise in Krylov–Schur).
//
// The result is quasi-triangular: 1x1 blocks for real eigenvalues and 2x2
// blocks for complex-conjugate pairs. 2x2 blocks with *real* eigenvalues
// are standardized to triangular form.
//
// Everything runs in the working scalar type T so that low-precision
// behavior is exactly that of the format under study; a non-finite value
// (overflow/NaR poisoning) aborts with failure, which the eigensolver
// classifies as non-convergence.
#pragma once

#include <cstddef>
#include <vector>

#include "arith/traits.hpp"
#include "dense/matrix.hpp"

namespace mfla {

struct SchurStatus {
  bool ok = false;
  int iterations = 0;
};

/// Householder reflector formulation (see make_reflector):
///  * lapack   — dlarfg-style, tau in [1,2]: robust in tapered formats.
///  * textbook — Golub & Van Loan beta = 2 v0^2/(sigma+v0^2): forms the
///    square of a small scale, where tapered-precision formats carry very
///    few fraction bits. Kept for the A4 ablation (docs/DESIGN.md §5), which
///    demonstrates a plausible mechanism behind the paper's posit anomaly.
enum class ReflectorStyle { lapack, textbook };

namespace detail {

/// Apply the Givens-like rotation [c s; -s c]^T ... [c s; -s c] as a
/// similarity on rows/cols (i, i+1) of t, and on columns of z.
template <typename T>
void apply_rotation_similarity(DenseMatrix<T>& t, DenseMatrix<T>& z, std::size_t i, T cs, T sn) {
  const std::size_t n = t.rows();
  for (std::size_t j = 0; j < n; ++j) {  // left: rows i, i+1
    const T x = t(i, j), y = t(i + 1, j);
    t(i, j) = cs * x + sn * y;
    t(i + 1, j) = cs * y - sn * x;
  }
  for (std::size_t r = 0; r < n; ++r) {  // right: cols i, i+1
    const T x = t(r, i), y = t(r, i + 1);
    t(r, i) = cs * x + sn * y;
    t(r, i + 1) = cs * y - sn * x;
  }
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const T x = z(r, i), y = z(r, i + 1);
    z(r, i) = cs * x + sn * y;
    z(r, i + 1) = cs * y - sn * x;
  }
}

/// Standardize the 2x2 block at (i, i): if its eigenvalues are real, rotate
/// the block to upper-triangular form.
template <typename T>
void standardize_2x2(DenseMatrix<T>& t, DenseMatrix<T>& z, std::size_t i) {
  const T a = t(i, i), b = t(i, i + 1), c = t(i + 1, i), d = t(i + 1, i + 1);
  if (c == T(0)) return;
  const T half(0.5);
  const T p = (a - d) * half;
  const T disc = p * p + b * c;
  if (!is_number(disc) || disc < T(0)) return;  // complex pair: keep the block
  const T sq = sqrt(disc);
  // Larger-magnitude root offset for stability.
  const T z1 = (p >= T(0)) ? (p + sq) : (p - sq);
  const T lambda = d + z1;  // one real eigenvalue
  // Rotation whose first column is the (normalized) eigenvector [b; λ-a]
  // or [λ-d; c], whichever is better conditioned.
  T x0 = b, x1 = lambda - a;
  const T y0 = lambda - d, y1 = c;
  if (abs(x0) + abs(x1) < abs(y0) + abs(y1)) {
    x0 = y0;
    x1 = y1;
  }
  // dlartg-style scaling: normalize by the larger component before squaring
  // so the sum of squares stays near magnitude one.
  const T mx = (abs(x0) > abs(x1)) ? abs(x0) : abs(x1);
  if (!is_number(mx) || mx == T(0)) return;
  x0 = x0 / mx;
  x1 = x1 / mx;
  const T r = sqrt(x0 * x0 + x1 * x1);
  if (!is_number(r) || r == T(0)) return;
  apply_rotation_similarity(t, z, i, x0 / r, x1 / r);
  t(i + 1, i) = T(0);
}

/// Householder reflector for a 2- or 3-vector: computes v (v[0] = 1) and
/// tau such that (I - tau v v^T) x = mu e1. Returns false for x = 0.
///
/// Uses the LAPACK dlarfg formulation: tau = (beta - alpha)/beta lies in
/// [1, 2] and v_i = x_i/(alpha - beta) with |alpha - beta| >= |beta|, so no
/// intermediate falls to the square of a small scale. (The textbook variant
/// that forms v0^2 ~ sigma^2 collapses in tapered formats, whose precision
/// decays away from magnitude one.)
template <typename T>
bool make_reflector(const T* x, int nr, T* v, T& tau,
                    ReflectorStyle style = ReflectorStyle::lapack) {
  nr = nr < 3 ? nr : 3;  // a 2- or 3-vector: lets the compiler see xs[] holds it
  T scale(0);
  for (int i = 0; i < nr; ++i) scale += abs(x[i]);
  if (scale == T(0) || !is_number(scale)) return false;
  const T alpha = x[0] / scale;
  T sigma(0);
  T xs[3];
  xs[0] = alpha;
  for (int i = 1; i < nr; ++i) {
    xs[i] = x[i] / scale;
    sigma += xs[i] * xs[i];
  }
  if (sigma == T(0)) return false;  // already in e1 direction
  const T mu = sqrt(alpha * alpha + sigma);
  if (style == ReflectorStyle::textbook) {
    const T v0 = (alpha <= T(0)) ? (alpha - mu) : (-sigma / (alpha + mu));
    if (v0 == T(0) || !is_number(v0)) return false;
    tau = T(2) * v0 * v0 / (sigma + v0 * v0);
    v[0] = T(1);
    for (int i = 1; i < nr; ++i) v[i] = xs[i] / v0;
    return is_number(tau);
  }
  const T beta = (alpha <= T(0)) ? mu : -mu;  // no cancellation in alpha - beta
  tau = (beta - alpha) / beta;
  const T denom = alpha - beta;
  if (denom == T(0) || !is_number(denom) || !is_number(tau)) return false;
  v[0] = T(1);
  for (int i = 1; i < nr; ++i) v[i] = xs[i] / denom;
  return true;
}

}  // namespace detail

/// Francis double-shift QR: h (upper Hessenberg, modified in place into the
/// real Schur form) and z (orthogonal accumulator, pre-initialized).
template <typename T>
SchurStatus hessenberg_to_schur(DenseMatrix<T>& h, DenseMatrix<T>& z, int max_sweeps_per_eig = 40,
                                ReflectorStyle style = ReflectorStyle::lapack) {
  const auto n = static_cast<int>(h.rows());
  SchurStatus st;
  if (n == 0) {
    st.ok = true;
    return st;
  }
  const T eps = NumTraits<T>::from_double(NumTraits<T>::epsilon());

  // Overall scale fallback for deflation tests on zero diagonals.
  T anorm(0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= (j + 1 < n ? j + 1 : n - 1); ++i) anorm += abs(h(i, j));
  if (!is_number(anorm)) return st;
  if (anorm == T(0)) {
    st.ok = true;
    return st;
  }

  int hi = n - 1;
  int iter = 0;
  const int max_total = max_sweeps_per_eig * n + 20;
  while (hi >= 0) {
    if (++st.iterations > max_total) return st;

    // Look for a negligible subdiagonal entry.
    int lo = hi;
    while (lo > 0) {
      T s = abs(h(lo - 1, lo - 1)) + abs(h(lo, lo));
      if (s == T(0)) s = anorm;
      if (!(abs(h(lo, lo - 1)) > eps * s)) {  // also catches NaN/NaR
        if (!is_number(h(lo, lo - 1))) return st;
        h(lo, lo - 1) = T(0);
        break;
      }
      --lo;
    }

    if (lo == hi) {  // 1x1 block deflated
      hi -= 1;
      iter = 0;
      continue;
    }
    if (lo == hi - 1) {  // 2x2 block deflated
      detail::standardize_2x2(h, z, static_cast<std::size_t>(lo));
      hi -= 2;
      iter = 0;
      continue;
    }

    ++iter;
    // Shift from the trailing 2x2 (or exceptional shifts, dlahqr-style).
    T s11, s12, s21, s22;
    if (iter == 10 || iter == 20 || iter == 30) {
      const T s = abs(h(hi, hi - 1)) + abs(h(hi - 1, hi - 2));
      s11 = NumTraits<T>::from_double(0.75) * s + h(hi, hi);
      s12 = NumTraits<T>::from_double(-0.4375) * s;
      s21 = s;
      s22 = s11;
    } else {
      s11 = h(hi - 1, hi - 1);
      s12 = h(hi - 1, hi);
      s21 = h(hi, hi - 1);
      s22 = h(hi, hi);
    }
    const T tr = s11 + s22;
    const T det = s11 * s22 - s12 * s21;

    // First column of (H - aI)(H - bI) e1 on the active window.
    T x = h(lo, lo) * h(lo, lo) + h(lo, lo + 1) * h(lo + 1, lo) - tr * h(lo, lo) + det;
    T y = h(lo + 1, lo) * (h(lo, lo) + h(lo + 1, lo + 1) - tr);
    T w = h(lo + 1, lo) * h(lo + 2, lo + 1);
    if (!is_number(x) || !is_number(y) || !is_number(w)) return st;

    // Bulge chase.
    for (int k = lo; k <= hi - 1; ++k) {
      const int nr = (hi - k + 1 < 3) ? hi - k + 1 : 3;
      T col[3];
      if (k == lo) {
        col[0] = x;
        col[1] = y;
        col[2] = w;
      } else {
        col[0] = h(k, k - 1);
        col[1] = h(k + 1, k - 1);
        col[2] = (nr == 3) ? h(k + 2, k - 1) : T(0);
      }
      T v[3], beta;
      if (!detail::make_reflector(col, nr, v, beta, style)) continue;

      // Left: rows k..k+nr-1, all columns (small m: simplicity over flops).
      for (int j = (k > lo ? k - 1 : lo); j < n; ++j) {
        T s(0);
        for (int i = 0; i < nr; ++i) s += v[i] * h(k + i, j);
        s *= beta;
        for (int i = 0; i < nr; ++i) h(k + i, j) -= s * v[i];
      }
      // Right: columns k..k+nr-1.
      const int ilast = (k + nr + 1 < hi + 1) ? k + nr + 1 : hi + 1;
      for (int i = 0; i < ilast; ++i) {
        T s(0);
        for (int j = 0; j < nr; ++j) s += h(i, k + j) * v[j];
        s *= beta;
        for (int j = 0; j < nr; ++j) h(i, k + j) -= s * v[j];
      }
      // Accumulate into z.
      for (std::size_t i = 0; i < z.rows(); ++i) {
        T s(0);
        for (int j = 0; j < nr; ++j) s += z(i, k + j) * v[j];
        s *= beta;
        for (int j = 0; j < nr; ++j) z(i, k + j) -= s * v[j];
      }
      // Clean the annihilated entries below the subdiagonal.
      if (k > lo) {
        for (int i = k + 1; i <= k + nr - 1; ++i) h(i, k - 1) = T(0);
      }
      if (!is_number(h(k + 1, k))) return st;
    }
  }
  st.ok = true;
  return st;
}

/// Eigenvalues (re, im) read off a real Schur form, in diagonal order.
template <typename T>
void schur_eigenvalues(const DenseMatrix<T>& t, std::vector<T>& re, std::vector<T>& im) {
  const std::size_t n = t.rows();
  re.assign(n, T(0));
  im.assign(n, T(0));
  std::size_t i = 0;
  const T half(0.5);
  while (i < n) {
    if (i + 1 == n || t(i + 1, i) == T(0)) {
      re[i] = t(i, i);
      ++i;
      continue;
    }
    const T a = t(i, i), b = t(i, i + 1), c = t(i + 1, i), d = t(i + 1, i + 1);
    const T p = (a - d) * half;
    const T disc = p * p + b * c;
    if (disc < T(0)) {  // complex pair
      const T sq = sqrt(-disc);
      re[i] = re[i + 1] = d + p;
      im[i] = sq;
      im[i + 1] = -sq;
    } else {  // real pair in an (unstandardized) 2x2 block
      const T sq = sqrt(disc);
      re[i] = d + p + sq;
      re[i + 1] = d + p - sq;
    }
    i += 2;
  }
}

}  // namespace mfla

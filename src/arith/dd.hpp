// Double-double arithmetic: ~106-bit significand built from hardware doubles.
//
// A DoubleDouble represents a value as an unevaluated sum hi + lo of two
// IEEE doubles with |lo| <= ulp(hi)/2 (the pair is kept normalized by a
// quick_two_sum after every operation). The error-free transformations are
// the classical ones — Knuth TwoSum for +, the Dekker product (realized
// through a correctly rounded fma, which computes the same exact error
// term without the split's overflow hazard) for * — so every arithmetic
// operation is accurate to a few units of eps_dd = 2^-104 ≈ 4.9e-32.
//
// Role in the engine: the *fast tier* of the reference solve
// (core/reference_tier.hpp). The paper's reference eigenpairs are defined
// in software float128 (113-bit significand, tolerance 1e-20); dd runs the
// same IRAM on hardware adds/fmas, typically an order of magnitude faster
// than soft binary128, and a certified residual bound decides per matrix
// whether the dd result can stand in for the float128 oracle or the solve
// must be promoted. dd is therefore registered reference-only
// (FormatId::dd): it is never a format under evaluation.
//
// NaN/inf: operations propagate non-finite values through the hi word; a
// non-finite hi forces lo = 0 during normalization so a partially poisoned
// pair (finite hi, NaN lo from an inf-inf error term) cannot masquerade as
// a finite value. is_number() inspects hi only, like the other formats.
#pragma once

#include <cmath>
#include <limits>

namespace mfla {

namespace dd_detail {

/// Knuth TwoSum: s + err == a + b exactly (any finite a, b), s = fl(a+b).
[[nodiscard]] inline double two_sum(double a, double b, double& err) noexcept {
  const double s = a + b;
  const double bb = s - a;
  err = (a - (s - bb)) + (b - bb);
  return s;
}

/// Fast TwoSum (Dekker): requires |a| >= |b| or a == 0; 3 flops.
[[nodiscard]] inline double quick_two_sum(double a, double b, double& err) noexcept {
  const double s = a + b;
  err = b - (s - a);
  return s;
}

/// Dekker product via fma: p + err == a * b exactly (finite, no overflow
/// and the product not below the denormal range). A correctly rounded fma
/// yields the identical error term to Dekker's 17-flop veltkamp-split
/// formulation while avoiding the split's 2^27+1 scaling overflow for
/// |a| > ~2^970.
[[nodiscard]] inline double two_prod(double a, double b, double& err) noexcept {
  const double p = a * b;
  err = std::fma(a, b, -p);
  return p;
}

/// Veltkamp split: x == x_hi + x_lo with both halves 26/27-bit. Exposed for
/// the property tests, which cross-check the fma product against Dekker's
/// original split-based formulation.
inline void veltkamp_split(double x, double& hi, double& lo) noexcept {
  const double t = 134217729.0 * x;  // 2^27 + 1
  hi = t - (t - x);
  lo = x - hi;
}

}  // namespace dd_detail

struct DoubleDouble {
  double hi = 0.0;
  double lo = 0.0;

  constexpr DoubleDouble() noexcept = default;
  constexpr DoubleDouble(double x) noexcept : hi(x), lo(0.0) {}  // NOLINT: value-preserving
  constexpr DoubleDouble(double h, double l) noexcept : hi(h), lo(l) {}

  /// Renormalize an unevaluated sum (|h| >= |l| expected, as produced by
  /// the operation cores) and enforce the non-finite invariant.
  [[nodiscard]] static DoubleDouble normalized(double h, double l) noexcept {
    double e;
    const double s = dd_detail::quick_two_sum(h, l, e);
    if (!std::isfinite(s)) return {s, 0.0};
    return {s, e};
  }

  [[nodiscard]] static DoubleDouble from_double(double x) noexcept { return {x, 0.0}; }
  /// Correctly rounded by the normalization invariant: hi = fl(hi + lo).
  [[nodiscard]] double to_double() const noexcept { return hi; }

  [[nodiscard]] friend DoubleDouble operator-(DoubleDouble a) noexcept {
    return {-a.hi, -a.lo};
  }

  [[nodiscard]] friend DoubleDouble operator+(DoubleDouble a, DoubleDouble b) noexcept {
    double s2, t2;
    double s1 = dd_detail::two_sum(a.hi, b.hi, s2);
    // IEEE hi-word semantics for overflow and inf/NaN operands: the error
    // terms are NaN garbage in these cases and must not poison the result
    // (inf would otherwise decay to NaN through the renormalization).
    if (!std::isfinite(s1)) return {s1, 0.0};
    const double t1 = dd_detail::two_sum(a.lo, b.lo, t2);
    s2 += t1;
    s1 = dd_detail::quick_two_sum(s1, s2, s2);
    s2 += t2;
    return normalized(s1, s2);
  }

  [[nodiscard]] friend DoubleDouble operator-(DoubleDouble a, DoubleDouble b) noexcept {
    return a + (-b);
  }

  [[nodiscard]] friend DoubleDouble operator*(DoubleDouble a, DoubleDouble b) noexcept {
    double e;
    const double p = dd_detail::two_prod(a.hi, b.hi, e);
    if (!std::isfinite(p)) return {p, 0.0};  // see operator+
    e += a.hi * b.lo + a.lo * b.hi;
    return normalized(p, e);
  }

  [[nodiscard]] friend DoubleDouble operator/(DoubleDouble a, DoubleDouble b) noexcept {
    // Long division with two exact-remainder refinements (the accurate
    // QD-style algorithm): full dd accuracy for finite quotients, and the
    // hi-word division supplies IEEE semantics for 0/0, x/0 and inf cases.
    const double q1 = a.hi / b.hi;
    if (!std::isfinite(q1)) return {q1, 0.0};
    DoubleDouble r = a - b * DoubleDouble(q1);
    const double q2 = r.hi / b.hi;
    r = r - b * DoubleDouble(q2);
    const double q3 = r.hi / b.hi;
    double e;
    const double q = dd_detail::quick_two_sum(q1, q2, e);
    return DoubleDouble::normalized(q, e) + DoubleDouble(q3);
  }

  DoubleDouble& operator+=(DoubleDouble b) noexcept { return *this = *this + b; }
  DoubleDouble& operator-=(DoubleDouble b) noexcept { return *this = *this - b; }
  DoubleDouble& operator*=(DoubleDouble b) noexcept { return *this = *this * b; }
  DoubleDouble& operator/=(DoubleDouble b) noexcept { return *this = *this / b; }

  // Comparisons are lexicographic on the normalized (hi, lo) pair; any
  // comparison involving NaN is false (IEEE ordering on the hi word).
  [[nodiscard]] friend bool operator==(DoubleDouble a, DoubleDouble b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  [[nodiscard]] friend bool operator!=(DoubleDouble a, DoubleDouble b) noexcept {
    return !(a == b) && a.hi == a.hi && b.hi == b.hi;
  }
  [[nodiscard]] friend bool operator<(DoubleDouble a, DoubleDouble b) noexcept {
    return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo);
  }
  [[nodiscard]] friend bool operator>(DoubleDouble a, DoubleDouble b) noexcept {
    return b < a;
  }
  [[nodiscard]] friend bool operator<=(DoubleDouble a, DoubleDouble b) noexcept {
    return a == b || a < b;
  }
  [[nodiscard]] friend bool operator>=(DoubleDouble a, DoubleDouble b) noexcept {
    return b <= a;
  }
};

[[nodiscard]] inline bool is_number(DoubleDouble x) noexcept { return std::isfinite(x.hi); }

[[nodiscard]] inline DoubleDouble abs(DoubleDouble x) noexcept {
  return (x.hi < 0.0 || (x.hi == 0.0 && std::signbit(x.hi))) ? -x : x;
}

[[nodiscard]] inline DoubleDouble sqrt(DoubleDouble x) noexcept {
  if (x.hi == 0.0) return {std::sqrt(x.hi), 0.0};  // preserves sqrt(-0) = -0
  if (x.hi < 0.0) return {std::numeric_limits<double>::quiet_NaN(), 0.0};
  if (!std::isfinite(x.hi)) return {x.hi, 0.0};  // inf or NaN
  // Karp–Markstein: one dd-accurate Newton correction of the hardware root.
  const double approx = std::sqrt(x.hi);
  const DoubleDouble s(approx);
  const DoubleDouble err = x - s * s;
  const double corr = err.hi / (2.0 * approx);
  return DoubleDouble::normalized(approx, corr);
}

}  // namespace mfla

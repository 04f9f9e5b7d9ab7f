// Double-resident arithmetic for the emulated formats whose values are all
// exact doubles.
//
// OnGrid<T> holds a binary64 value that always lies on T's grid (the set of
// values T can represent). Every operation is one hardware operation plus
// one rounding back onto the grid, so no operand is decoded and no result
// is encoded: the bits of T exist only at the boundary (to_format and the
// OnGrid(T) constructor, both exact). Results equal T's own operations bit
// for bit:
//
//  * Rounding onto the grid. SoftFloat (float16, bfloat16): round to
//    nearest even on the double's bits. Tapered (posit, takum; 16 <= N <=
//    32): a constexpr table maps the double's exponent to its binade's
//    quantum, and one hardware addition rounds to it. Binades where the
//    posit exponent field is truncated (ties go to the even *encoding*,
//    not the even fraction), the saturation regions and non-finite values
//    take the exact engine.
//  * Short grids (every value has p <= 25 significant bits, so 2p + 2 <=
//    53: float16, bfloat16, posit16, takum16): the double operation rounded
//    once onto the grid is correctly rounded, as SoftFloat itself relies on.
//  * Wide grids (posit32, takum32: p = 28): hi = fl(a op b) and the sign of
//    its exact error (Fast2Sum for +/-, fma for *, the fma residual for /
//    and sqrt) give the round-to-odd double (Boldo & Melquiond, IEEE TC
//    2008), which is then rounded onto the grid. Round-to-odd is exact here
//    because every grid point and every tie between neighbours needs at
//    most 29 significant bits, and no sum, product or quotient of two grid
//    values leaves the normal double range.
//
// Semantics follow T: tapered NaR is held as a NaN but equals itself and
// sorts below every number; tapered zero is always +0.0. SoftFloat keeps
// IEEE +-0, +-inf and NaN. The error-free transforms must not be contracted
// into FMAs; the build passes -ffp-contract=off (CMakeLists.txt).
//
// docs/FORMATS.md ("Resident arithmetic") has the argument in full;
// tests/test_on_grid.cpp checks it against the exact engines.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "arith/traits.hpp"

namespace mfla {

namespace detail {

[[nodiscard]] constexpr double pow2(int e) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
}

/// Round-to-odd of the exact value hi + (something with sign `dir`), where
/// hi is its round-to-nearest double: when the value is inexact and hi's
/// last bit is even, step one ulp toward it. dir is -1, 0 or +1 (0 for an
/// exact result, and for the NaN "errors" that come with inf/NaN hi).
[[nodiscard]] inline double round_to_odd(double hi, std::int64_t dir) noexcept {
  std::uint64_t u = std::bit_cast<std::uint64_t>(hi);
  const auto neg = static_cast<std::int64_t>(u >> 63);
  const std::int64_t step = (dir ^ -neg) + neg;  // toward the value, in magnitude
  u += static_cast<std::uint64_t>(step) & (0 - (~u & 1));
  return std::bit_cast<double>(u);
}

[[nodiscard]] inline std::int64_t sign_of(double x) noexcept {
  return static_cast<std::int64_t>(x > 0.0) - static_cast<std::int64_t>(x < 0.0);
}

/// The IEEE-style grids: SoftFloat<E, M, Flavor::ieee>.
template <int E, int M>
struct SoftFloatGrid {
  using Format = SoftFloat<E, M, Flavor::ieee>;
  static constexpr bool kTapered = false;

  static constexpr std::uint64_t kMinNormal = std::bit_cast<std::uint64_t>(pow2(Format::kEmin));
  static constexpr std::uint64_t kOverflow = std::bit_cast<std::uint64_t>(pow2(Format::kEmax + 1));
  static constexpr std::uint64_t kInf = 0x7ffull << 52;
  static constexpr std::uint64_t kSign = 1ull << 63;
  /// (|x| + C) - C rounds a magnitude below 2^kEmin to the subnormal
  /// quantum 2^(kEmin - M) in one hardware rounding.
  static constexpr double kSubnormalShift = pow2(Format::kEmin - M + 52);

  /// Format::from_double(x).to_double() without the encoding: normal
  /// results round to nearest even on the double's bits (a carry out of
  /// the fraction moves into the exponent).
  [[nodiscard]] static double round(double x) noexcept {
    constexpr int kDrop = 52 - M;
    const auto u = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t a = u & ~kSign;
    const std::uint64_t s = u & kSign;
    if (a >= kMinNormal && a < kOverflow) [[likely]] {
      const std::uint64_t bias = ((std::uint64_t{1} << (kDrop - 1)) - 1) + ((a >> kDrop) & 1);
      std::uint64_t r = (a + bias) & ~((std::uint64_t{1} << kDrop) - 1);
      r = r >= kOverflow ? kInf : r;
      return std::bit_cast<double>(r | s);
    }
    if (a < kMinNormal) return std::copysign((std::fabs(x) + kSubnormalShift) - kSubnormalShift, x);
    if (a > kInf) return std::numeric_limits<double>::quiet_NaN();
    return std::bit_cast<double>(kInf | s);  // overflow and infinities
  }

  // Correctly rounded via one double operation (2M + 2 <= 53).
  [[nodiscard]] static double add(double a, double b) noexcept { return round(a + b); }
  [[nodiscard]] static double sub(double a, double b) noexcept { return round(a - b); }
  [[nodiscard]] static double mul(double a, double b) noexcept { return round(a * b); }
  [[nodiscard]] static double div(double a, double b) noexcept { return round(a / b); }
  [[nodiscard]] static double sqrt(double a) noexcept { return round(std::sqrt(a)); }
};

/// Fraction bits of one binade [2^e, 2^(e+1)) of a posit<N, ES> grid, or 0
/// where the binade takes the exact engine (exponent field truncated, or
/// outside [minpos, maxpos)).
template <int N, int ES>
[[nodiscard]] constexpr int posit_fraction_bits(int e) noexcept {
  constexpr int max_exp = (N - 2) << ES;
  if (e >= max_exp || e < -max_exp) return 0;
  const int k = e >> ES;                      // floor division
  const int len = (k >= 0) ? k + 2 : 1 - k;   // regime run plus terminator
  const int fb = N - 1 - len - ES;
  return fb > 0 ? fb : 0;
}

/// Fraction bits of one binade of a takum<N> grid, or 0 for the exact
/// engine. That includes the end binades e = -255 and e = 254, where
/// rounding may leave [minpos, maxpos] (2^-255 has no encoding, 2^255 is
/// past maxpos) and the engine saturates.
template <int N>
[[nodiscard]] constexpr int takum_fraction_bits(int e) noexcept {
  if (e >= 254 || e <= -255) return 0;
  const int cbits = (e >= 0) ? bitlen(static_cast<unsigned>(e) + 1) - 1
                             : bitlen(static_cast<unsigned>(-e)) - 1;
  const int fb = N - 5 - cbits;
  return fb > 0 ? fb : 0;
}

/// The tapered grids (posit, takum) of width 16 <= N <= 32.
template <class Codec>
struct TaperedGrid {
  using Format = TaperedFloat<Codec>;
  static_assert(Codec::nbits >= 16 && Codec::nbits <= 32,
                "wider grids do not fit in binary64; the 8-bit ones keep their tables");
  static constexpr bool kTapered = true;

  /// Fraction bits of the binade with biased double exponent be, or 0 for
  /// the exact engine.
  [[nodiscard]] static constexpr int fraction_bits(int be) noexcept {
    const int e = be - 1023;
    if constexpr (requires { Codec::es; }) {
      return posit_fraction_bits<Codec::nbits, Codec::es>(e);
    } else {
      return takum_fraction_bits<Codec::nbits>(e);
    }
  }

  /// Per biased double exponent, C = 2^52 * the binade's quantum
  /// 2^(e - fb): (|x| + C) - C rounds |x| onto the grid in one hardware
  /// rounding (|x| + C stays in [C, 2C), whose ulp is the quantum). 0 sends
  /// the binade to the exact engine, as it does zero, subnormal and
  /// non-finite doubles.
  static constexpr std::array<double, 2048> kRoundShift = [] {
    std::array<double, 2048> t{};
    for (int be = 1; be < 2047; ++be) {
      const int fb = fraction_bits(be);
      if (fb > 0) t[static_cast<std::size_t>(be)] = pow2(be - 1023 - fb + 52);
    }
    return t;
  }();

  /// Significant bits of the grid's densest binades (around 1).
  static constexpr int kSignificantBits = [] {
    int m = 0;
    for (int be = 1; be < 2047; ++be) m = fraction_bits(be) > m ? fraction_bits(be) : m;
    return m + 1;
  }();
  /// A short grid (2p + 2 <= 53: the 16-bit formats) is rounded correctly
  /// by one double operation and one rounding, as SoftFloat is; a wide one
  /// (the 32-bit formats) needs the error term and round-to-odd.
  static constexpr bool kShort = 2 * kSignificantBits + 2 <= 53;

  /// Format::from_double(x).to_double() without the encoding, except NaR
  /// comes back as a NaN and zero as +0.0.
  [[nodiscard]] static double round(double x) noexcept {
    const double c = kRoundShift[(std::bit_cast<std::uint64_t>(x) >> 52) & 0x7ff];
    if (c != 0.0) [[likely]] return std::copysign((std::fabs(x) + c) - c, x);
    if (x == 0.0) return 0.0;
    return round_exact(x);
  }

  [[nodiscard]] static double add(double a, double b) noexcept {
    const double s = a + b;
    if constexpr (kShort) {
      return round(s);
    } else {
      // Fast2Sum on the operands ordered by magnitude: s - big is exact, so
      // the error small - (s - big) has the sign of small against it.
      const bool a_big = std::fabs(a) >= std::fabs(b);
      const double big = a_big ? a : b;
      const double small = a_big ? b : a;
      const double t = s - big;
      const std::int64_t dir =
          static_cast<std::int64_t>(small > t) - static_cast<std::int64_t>(small < t);
      return round(round_to_odd(s, dir));
    }
  }
  [[nodiscard]] static double sub(double a, double b) noexcept { return add(a, -b); }
  [[nodiscard]] static double mul(double a, double b) noexcept {
    const double p = a * b;
    if constexpr (kShort) {
      return round(p);  // exact: 2p <= 53
    } else {
      return round(round_to_odd(p, sign_of(std::fma(a, b, -p))));
    }
  }
  [[nodiscard]] static double div(double a, double b) noexcept {
    const double q = a / b;
    if constexpr (kShort) {
      return round(q);
    } else {
      // a - q*b is exact; the quotient's error has its sign times b's.
      const std::int64_t dir = sign_of(std::fma(-q, b, a));
      return round(round_to_odd(q, b < 0.0 ? -dir : dir));
    }
  }
  [[nodiscard]] static double sqrt(double a) noexcept {
    const double s = std::sqrt(a);
    if constexpr (kShort) {
      return round(s);
    } else {
      return round(round_to_odd(s, sign_of(std::fma(-s, s, a))));
    }
  }

 private:
  /// The exact engine: the binades fraction_bits leaves out, saturation,
  /// double subnormals, NaN and infinities.
  [[gnu::noinline, gnu::cold]] static double round_exact(double x) noexcept {
    return Format::from_double(x).to_double();
  }
};

template <typename T>
struct GridFor;  // formats without a resident grid have none
template <int E, int M>
struct GridFor<SoftFloat<E, M, Flavor::ieee>> {
  using type = SoftFloatGrid<E, M>;
};
template <class Codec>
  requires(Codec::nbits >= 16 && Codec::nbits <= 32)
struct GridFor<TaperedFloat<Codec>> {
  using type = TaperedGrid<Codec>;
};

}  // namespace detail

/// The formats the solvers run resident in binary64. The 8-bit formats keep
/// their whole-operation lookup tables; posit64/takum64 do not fit.
template <typename T>
inline constexpr bool kGridResident = false;
template <>
inline constexpr bool kGridResident<Float16> = true;
template <>
inline constexpr bool kGridResident<BFloat16> = true;
template <>
inline constexpr bool kGridResident<Posit16> = true;
template <>
inline constexpr bool kGridResident<Takum16> = true;
template <>
inline constexpr bool kGridResident<Posit32> = true;
template <>
inline constexpr bool kGridResident<Takum32> = true;

/// A value of format T held as the binary64 it equals.
template <typename T>
class OnGrid {
  using Grid = typename detail::GridFor<T>::type;

 public:
  constexpr OnGrid() noexcept = default;
  /// Rounds d onto the grid exactly as T's own conversion does.
  OnGrid(double d) noexcept : v_(Grid::round(d)) {}
  OnGrid(int i) noexcept : OnGrid(static_cast<double>(i)) {}
  /// Exact: every value of T is a double on the grid.
  explicit OnGrid(T x) noexcept : v_(x.to_double()) {}

  /// The value back in T's encoding (exact).
  [[nodiscard]] T to_format() const noexcept { return T::from_double(v_); }
  /// The value as a double; NaN (and NaR) as the quiet NaN T returns.
  [[nodiscard]] double to_double() const noexcept {
    return v_ == v_ ? v_ : std::numeric_limits<double>::quiet_NaN();
  }
  explicit operator double() const noexcept { return to_double(); }

  friend OnGrid operator+(OnGrid a, OnGrid b) noexcept { return raw(Grid::add(a.v_, b.v_)); }
  friend OnGrid operator-(OnGrid a, OnGrid b) noexcept { return raw(Grid::sub(a.v_, b.v_)); }
  friend OnGrid operator*(OnGrid a, OnGrid b) noexcept { return raw(Grid::mul(a.v_, b.v_)); }
  friend OnGrid operator/(OnGrid a, OnGrid b) noexcept { return raw(Grid::div(a.v_, b.v_)); }
  friend OnGrid operator-(OnGrid a) noexcept {
    // Tapered formats have one zero: 0.0 - x keeps it +0.0.
    if constexpr (Grid::kTapered) return raw(0.0 - a.v_);
    return raw(-a.v_);
  }
  friend OnGrid operator+(OnGrid a) noexcept { return a; }

  OnGrid& operator+=(OnGrid o) noexcept { return *this = *this + o; }
  OnGrid& operator-=(OnGrid o) noexcept { return *this = *this - o; }
  OnGrid& operator*=(OnGrid o) noexcept { return *this = *this * o; }
  OnGrid& operator/=(OnGrid o) noexcept { return *this = *this / o; }

  // SoftFloat: IEEE comparisons. Tapered: the total order of the signed
  // encoding, where NaR equals itself and is below every number.
  friend bool operator==(OnGrid a, OnGrid b) noexcept {
    if constexpr (Grid::kTapered) return a.v_ == b.v_ || (a.v_ != a.v_ && b.v_ != b.v_);
    return a.v_ == b.v_;
  }
  friend bool operator<(OnGrid a, OnGrid b) noexcept {
    if constexpr (Grid::kTapered) return a.v_ < b.v_ || (a.v_ != a.v_ && b.v_ == b.v_);
    return a.v_ < b.v_;
  }
  friend bool operator!=(OnGrid a, OnGrid b) noexcept { return !(a == b); }
  friend bool operator>(OnGrid a, OnGrid b) noexcept { return b < a; }
  friend bool operator<=(OnGrid a, OnGrid b) noexcept {
    if constexpr (Grid::kTapered) return !(b < a);
    return a.v_ <= b.v_;
  }
  friend bool operator>=(OnGrid a, OnGrid b) noexcept { return b <= a; }

  [[nodiscard]] friend OnGrid abs(OnGrid a) noexcept { return raw(std::fabs(a.v_)); }
  [[nodiscard]] friend OnGrid sqrt(OnGrid a) noexcept { return raw(Grid::sqrt(a.v_)); }
  [[nodiscard]] friend bool is_number(OnGrid a) noexcept {
    if constexpr (Grid::kTapered) return a.v_ == a.v_;
    return std::isfinite(a.v_);
  }

 private:
  [[nodiscard]] static OnGrid raw(double on_grid) noexcept {
    OnGrid r;
    r.v_ = on_grid;
    return r;
  }

  double v_ = 0.0;
};

template <typename T>
struct NumTraits<OnGrid<T>> {
  static constexpr int bits = NumTraits<T>::bits;
  static constexpr bool tapered = NumTraits<T>::tapered;
  static std::string name() { return NumTraits<T>::name(); }
  static constexpr double epsilon() noexcept { return NumTraits<T>::epsilon(); }
  static constexpr double default_tolerance() noexcept { return NumTraits<T>::default_tolerance(); }
  static double to_double(OnGrid<T> x) noexcept { return x.to_double(); }
  static OnGrid<T> from_double(double x) noexcept { return OnGrid<T>(x); }
};

}  // namespace mfla

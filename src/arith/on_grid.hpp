// Resident arithmetic for the emulated formats of 16 to 64 bits.
//
// OnGrid<T> holds a value that always lies on T's grid (the set of values T
// can represent) in a form the host computes with directly, so no operand
// is decoded and no result is encoded: the bits of T exist only at the
// boundary (to_format and the OnGrid(T) constructor, both exact). Results
// equal T's own operations bit for bit:
//
//  * Double-resident grids (16 and 32 bits): every value is a binary64.
//    Each operation is one hardware operation plus one rounding onto the
//    grid.
//    - Rounding onto the grid. SoftFloat (float16, bfloat16): round to
//      nearest even on the double's bits. Tapered (posit, takum): a
//      constexpr table maps the double's exponent to its binade's quantum,
//      and one hardware addition rounds to it. Binades where the posit
//      exponent field is truncated (ties go to the even *encoding*, not the
//      even fraction), the saturation regions and non-finite values take
//      the exact engine.
//    - Short grids (every value has p <= 25 significant bits, so
//      2p + 2 <= 53: float16, bfloat16, posit16, takum16): the double
//      operation rounded once onto the grid is correctly rounded, as
//      SoftFloat itself relies on.
//    - Wide grids (posit32, takum32: p = 28): hi = fl(a op b) and the sign
//      of its exact error (Fast2Sum for +/-, fma for *, the fma residual
//      for / and sqrt) give the round-to-odd double (Boldo & Melquiond,
//      IEEE TC 2008), which is then rounded onto the grid. Round-to-odd is
//      exact here because every grid point and every tie between
//      neighbours needs at most 29 significant bits, and no sum, product or
//      quotient of two grid values leaves the normal double range.
//  * Unpacked-resident grids (posit64, takum64): the value is the decoded
//    (sign, exponent, 64-bit significand) with zero/NaR flags. + and - run
//    in one 64-bit word (grid values have <= 60 significant bits); *, / and
//    sqrt use the exact engine's cores. The exact result is rounded once in
//    the unpacked domain with the same per-binade table, to nearest even on
//    the significand; the binades the table leaves out take the exact
//    engine.
//
// Semantics follow T: tapered NaR equals itself and sorts below every
// number; tapered zero has no sign. SoftFloat keeps IEEE +-0, +-inf and
// NaN. The error-free transforms must not be contracted into FMAs; the
// build passes -ffp-contract=off (CMakeLists.txt).
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

/// What the grids held as a binary64 share: the boundary conversions and
/// the predicates. Tapered NaR is held as a NaN that equals itself and
/// sorts below every number; tapered zero is always +0.0.
template <class F, bool Tapered>
struct DoubleValued {
  using Format = F;
  using Value = double;

  [[nodiscard]] static double from_format(Format x) noexcept { return x.to_double(); }
  /// Exact: every value on the grid is one of Format's.
  [[nodiscard]] static Format to_format(double v) noexcept { return Format::from_double(v); }
  [[nodiscard]] static double to_double(double v) noexcept {
    return v == v ? v : std::numeric_limits<double>::quiet_NaN();
  }

  [[nodiscard]] static double neg(double a) noexcept {
    if constexpr (Tapered) return 0.0 - a;  // keeps the one zero +0.0
    return -a;
  }
  [[nodiscard]] static double abs(double a) noexcept { return std::fabs(a); }

  // SoftFloat: IEEE comparisons. Tapered: the total order of the signed
  // encoding, where NaR equals itself and is below every number.
  [[nodiscard]] static bool eq(double a, double b) noexcept {
    if constexpr (Tapered) return a == b || (a != a && b != b);
    return a == b;
  }
  [[nodiscard]] static bool lt(double a, double b) noexcept {
    if constexpr (Tapered) return a < b || (a != a && b == b);
    return a < b;
  }
  [[nodiscard]] static bool le(double a, double b) noexcept {
    if constexpr (Tapered) return !lt(b, a);
    return a <= b;
  }
  [[nodiscard]] static bool is_number(double a) noexcept {
    if constexpr (Tapered) return a == a;
    return std::isfinite(a);
  }
};

/// The IEEE-style grids: SoftFloat<E, M, Flavor::ieee>.
template <int E, int M>
struct SoftFloatGrid : DoubleValued<SoftFloat<E, M, Flavor::ieee>, false> {
  using Format = SoftFloat<E, M, Flavor::ieee>;

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

/// Fraction bits of binade e of Codec's grid, or 0 for the exact engine.
template <class Codec>
[[nodiscard]] constexpr int codec_fraction_bits(int e) noexcept {
  if constexpr (requires { Codec::es; }) {
    return posit_fraction_bits<Codec::nbits, Codec::es>(e);
  } else {
    return takum_fraction_bits<Codec::nbits>(e);
  }
}

/// The tapered grids (posit, takum) of width 16 <= N <= 32.
template <class Codec>
struct TaperedGrid : DoubleValued<TaperedFloat<Codec>, true> {
  using Format = TaperedFloat<Codec>;
  static_assert(Codec::nbits >= 16 && Codec::nbits <= 32,
                "the 64-bit grids are unpacked-resident; the 8-bit ones keep their tables");

  /// Fraction bits of the binade with biased double exponent be, or 0 for
  /// the exact engine.
  [[nodiscard]] static constexpr int fraction_bits(int be) noexcept {
    return codec_fraction_bits<Codec>(be - 1023);
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

/// A value of a 64-bit tapered grid, decoded: (-1)^neg * m * 2^(e - 63)
/// with m in [2^63, 2^64). Zero is all fields 0 and NaR is m = 0 with nar
/// set, so m == 0 singles out both.
struct UnpackedValue {
  std::uint64_t m = 0;
  std::int32_t e = 0;
  bool neg = false;
  bool nar = false;
};

/// The 64-bit tapered grids (posit64, takum64). Operations compute the
/// exact result as (neg, e, m, guard, sticky) and round it once onto the
/// grid in the unpacked domain.
template <class Codec>
struct UnpackedGrid {
  using Format = TaperedFloat<Codec>;
  using Value = UnpackedValue;
  static constexpr Value kNaR{0, 0, false, true};

  /// Fraction bits per binade e in [-512, 512), which holds every exponent
  /// of a product or quotient of two grid values.
  static constexpr std::array<std::int8_t, 1024> kFractionBits = [] {
    std::array<std::int8_t, 1024> t{};
    for (int e = -512; e < 512; ++e)
      t[static_cast<std::size_t>(e + 512)] = static_cast<std::int8_t>(codec_fraction_bits<Codec>(e));
    return t;
  }();
  [[nodiscard]] static int fraction_bits(int e) noexcept {
    const auto i = static_cast<unsigned>(e + 512);
    return i < kFractionBits.size() ? kFractionBits[i] : 0;
  }

  /// Significant bits of the grid's densest binades (around 1).
  static constexpr int kSignificantBits = [] {
    int m = 0;
    for (const std::int8_t fb : kFractionBits) m = fb > m ? fb : m;
    return m + 1;
  }();
  // add() keeps one headroom bit for the carry and needs three zero bits
  // below every operand's significand.
  static_assert(kSignificantBits <= 60, "a sum of two grid values must fit in one word");

  /// Rounds an exact result onto the grid as Format::from_exact does. In a
  /// binade with fb >= 1 the encodings are consecutive integers of linearly
  /// spaced values, so nearest-even on the encoding is nearest-even on the
  /// significand's fb fraction bits. A carry out of the significand lands
  /// on 2^(e+1), the first point of the next binade.
  [[nodiscard]] static Value round(const ExactResult& r) noexcept {
    const int fb = fraction_bits(r.e);
    if (fb <= 0) [[unlikely]] return round_exact(r);
    const std::uint64_t ulp = std::uint64_t{1} << (63 - fb);
    const std::uint64_t low = r.m & (ulp - 1);
    std::uint64_t m = r.m - low;
    const std::uint64_t half = ulp >> 1;
    const bool up = low > half || (low == half && (r.guard || r.sticky || (m & ulp) != 0));
    m += up ? ulp : 0;
    if (m == 0) [[unlikely]] return {std::uint64_t{1} << 63, r.e + 1, r.neg, false};
    return {m, r.e, r.neg, false};
  }

  /// Format::from_double(x) without the encoding.
  [[nodiscard]] static Value round(double x) noexcept {
    if (x == 0.0) return {};
    const DoubleParts p = decompose_double(x);
    if (p.nan || p.inf) return kNaR;
    return round(ExactResult{p.neg, p.e + 52, p.sig << 11, false, false});
  }

  [[nodiscard]] static Value from_format(Format x) noexcept {
    if (x.is_nar()) return kNaR;
    if (x.is_zero()) return {};
    const Unpacked u = x.unpack();
    return {u.m, u.e, u.neg, false};
  }
  /// Exact: the value is on the grid.
  [[nodiscard]] static Format to_format(Value v) noexcept {
    if (v.m == 0) return v.nar ? Format::nar() : Format::zero();
    return Format::from_exact(ExactResult{v.neg, v.e, v.m, false, false});
  }
  /// Format's to_double of the same value.
  [[nodiscard]] static double to_double(Value v) noexcept {
    if (v.m == 0) return v.nar ? std::numeric_limits<double>::quiet_NaN() : 0.0;
    return compose_double(v.neg, v.m, v.e - 63);
  }

  /// The sum in one 64-bit word. Both significands move down one bit (a
  /// headroom bit for the carry), the smaller one by the exponent gap more
  /// with the bits shifted out jammed into its last bit. Every grid value
  /// has <= 60 significant bits, so the larger operand ends in three zero
  /// bits, and wherever bits were lost (gap >= 2) the result keeps its top
  /// bit at 61 or above: the jammed bit lies below the guard bit of any
  /// rounding to <= 59 fraction bits and stands in for the lost tail.
  [[nodiscard]] static Value add(Value a, Value b) noexcept {
    if ((a.m == 0) | (b.m == 0)) [[unlikely]] {
      if (a.nar | b.nar) return kNaR;
      return a.m == 0 ? b : a;
    }
    // Selects rather than a swap: which operand is larger is a coin flip.
    const bool a_big = a.e > b.e || (a.e == b.e && a.m >= b.m);
    const int e = a_big ? a.e : b.e;
    const int gap = a_big ? a.e - b.e : b.e - a.e;
    const std::uint64_t x = (a_big ? a.m : b.m) >> 1;
    std::uint64_t y = (a_big ? b.m : a.m) >> 1;
    // y < 2^63, so a shift by 63 moves all of it into the jammed bit.
    const int shift = gap < 63 ? gap : 63;
    y = (y >> shift) | static_cast<std::uint64_t>((y & ((std::uint64_t{1} << shift) - 1)) != 0);
    const std::uint64_t r = a.neg == b.neg ? x + y : x - y;
    if (r == 0) return {};
    const int top = 63 - std::countl_zero(r);
    return round(ExactResult{a_big ? a.neg : b.neg, e + top - 62, r << (63 - top), false, false});
  }
  [[nodiscard]] static Value sub(Value a, Value b) noexcept { return add(a, neg(b)); }
  [[nodiscard]] static Value mul(Value a, Value b) noexcept {
    if ((a.m == 0) | (b.m == 0)) [[unlikely]] return (a.nar | b.nar) ? kNaR : Value{};
    return round(mul_exact(unpacked(a), unpacked(b)));
  }
  [[nodiscard]] static Value div(Value a, Value b) noexcept {
    if ((a.m == 0) | (b.m == 0)) [[unlikely]] return (a.nar | (b.m == 0)) ? kNaR : Value{};
    return round(div_exact(unpacked(a), unpacked(b)));
  }
  [[nodiscard]] static Value sqrt(Value a) noexcept {
    if (a.m == 0) [[unlikely]] return a;
    if (a.neg) return kNaR;
    return round(sqrt_exact(unpacked(a)));
  }

  [[nodiscard]] static Value neg(Value a) noexcept {
    a.neg = a.neg != (a.m != 0);  // zero and NaR have no sign
    return a;
  }
  [[nodiscard]] static Value abs(Value a) noexcept {
    a.neg = false;
    return a;
  }

  // The total order of the signed encoding: NaR equals itself and is below
  // every number.
  [[nodiscard]] static bool eq(Value a, Value b) noexcept {
    return a.m == b.m && a.e == b.e && a.neg == b.neg && a.nar == b.nar;
  }
  [[nodiscard]] static bool lt(Value a, Value b) noexcept { return key(a) < key(b); }
  [[nodiscard]] static bool le(Value a, Value b) noexcept { return key(a) <= key(b); }
  [[nodiscard]] static bool is_number(Value a) noexcept { return !a.nar; }

 private:
  [[nodiscard]] static Unpacked unpacked(Value v) noexcept { return {v.neg, v.e, v.m}; }

  /// A signed key in the order of the values (grid exponents are > -1024).
  [[nodiscard]] static i128 key(Value v) noexcept {
    if (v.nar) return -static_cast<i128>(~u128{0} >> 1) - 1;
    if (v.m == 0) return 0;
    const auto mag = static_cast<i128>((static_cast<u128>(v.e + 1024) << 64) | v.m);
    return v.neg ? -mag : mag;
  }

  /// The exact engine: the binades fraction_bits leaves out and saturation.
  [[gnu::noinline, gnu::cold]] static Value round_exact(const ExactResult& r) noexcept {
    return from_format(Format::from_exact(r));
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
template <class Codec>
  requires(Codec::nbits == 64)
struct GridFor<TaperedFloat<Codec>> {
  using type = UnpackedGrid<Codec>;
};

}  // namespace detail

/// The formats the solvers run resident: in binary64 up to 32 bits,
/// unpacked at 64. The 8-bit formats keep their whole-operation lookup
/// tables.
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
template <>
inline constexpr bool kGridResident<Posit64> = true;
template <>
inline constexpr bool kGridResident<Takum64> = true;

/// A value of format T held on T's grid in the grid's resident form.
template <typename T>
class OnGrid {
  using Grid = typename detail::GridFor<T>::type;

 public:
  constexpr OnGrid() noexcept = default;
  /// Rounds d onto the grid exactly as T's own conversion does.
  OnGrid(double d) noexcept : v_(Grid::round(d)) {}
  OnGrid(int i) noexcept : OnGrid(static_cast<double>(i)) {}
  /// Exact: every value of T lies on the grid.
  explicit OnGrid(T x) noexcept : v_(Grid::from_format(x)) {}

  /// The value back in T's encoding (exact).
  [[nodiscard]] T to_format() const noexcept { return Grid::to_format(v_); }
  /// The value as T's to_double gives it; NaN (and NaR) as a quiet NaN.
  [[nodiscard]] double to_double() const noexcept { return Grid::to_double(v_); }
  explicit operator double() const noexcept { return to_double(); }

  friend OnGrid operator+(OnGrid a, OnGrid b) noexcept { return raw(Grid::add(a.v_, b.v_)); }
  friend OnGrid operator-(OnGrid a, OnGrid b) noexcept { return raw(Grid::sub(a.v_, b.v_)); }
  friend OnGrid operator*(OnGrid a, OnGrid b) noexcept { return raw(Grid::mul(a.v_, b.v_)); }
  friend OnGrid operator/(OnGrid a, OnGrid b) noexcept { return raw(Grid::div(a.v_, b.v_)); }
  friend OnGrid operator-(OnGrid a) noexcept { return raw(Grid::neg(a.v_)); }
  friend OnGrid operator+(OnGrid a) noexcept { return a; }

  OnGrid& operator+=(OnGrid o) noexcept { return *this = *this + o; }
  OnGrid& operator-=(OnGrid o) noexcept { return *this = *this - o; }
  OnGrid& operator*=(OnGrid o) noexcept { return *this = *this * o; }
  OnGrid& operator/=(OnGrid o) noexcept { return *this = *this / o; }

  friend bool operator==(OnGrid a, OnGrid b) noexcept { return Grid::eq(a.v_, b.v_); }
  friend bool operator<(OnGrid a, OnGrid b) noexcept { return Grid::lt(a.v_, b.v_); }
  friend bool operator!=(OnGrid a, OnGrid b) noexcept { return !(a == b); }
  friend bool operator>(OnGrid a, OnGrid b) noexcept { return b < a; }
  friend bool operator<=(OnGrid a, OnGrid b) noexcept { return Grid::le(a.v_, b.v_); }
  friend bool operator>=(OnGrid a, OnGrid b) noexcept { return b <= a; }

  [[nodiscard]] friend OnGrid abs(OnGrid a) noexcept { return raw(Grid::abs(a.v_)); }
  [[nodiscard]] friend OnGrid sqrt(OnGrid a) noexcept { return raw(Grid::sqrt(a.v_)); }
  [[nodiscard]] friend bool is_number(OnGrid a) noexcept { return Grid::is_number(a.v_); }

 private:
  using Value = typename Grid::Value;

  [[nodiscard]] static OnGrid raw(Value on_grid) noexcept {
    OnGrid r;
    r.v_ = on_grid;
    return r;
  }

  Value v_{};
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

// Software-emulated IEEE-754-style minifloats.
//
// SoftFloat<E, M, Flavor> models a binary floating-point format with E
// exponent bits, M mantissa bits and IEEE-like subnormals. Two flavors:
//
//  * Flavor::ieee       — infinities and NaNs as in IEEE 754 (float16,
//                         bfloat16 and OFP8 E5M2 use this).
//  * Flavor::finite_nan — the OFP8 E4M3 layout: no infinities; the
//                         all-ones exponent encodings are ordinary finite
//                         numbers except S.1111.111 which is NaN. Overflow
//                         converts to NaN (OCP non-saturating mode).
//
// Arithmetic is performed by converting to double (assembling the double's
// bits directly, no libm), computing, and rounding back with
// round-to-nearest-even. Because 2*M + 2 <= 53 for every format
// instantiated here (M <= 10), the double rounding is provably innocuous,
// i.e. every operation is correctly rounded.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

#include "support/floatbits.hpp"
#include "support/int128.hpp"

namespace mfla {

enum class Flavor { ieee, finite_nan };

template <int E, int M, Flavor F = Flavor::ieee>
class SoftFloat {
  static_assert(E >= 2 && E <= 8, "exponent field out of supported range");
  static_assert(M >= 1 && M <= 10, "mantissa field out of supported range");

 public:
  static constexpr int kBits = 1 + E + M;
  static constexpr int kExpBits = E;
  static constexpr int kManBits = M;
  static constexpr Flavor kFlavor = F;
  using Storage = detail::uint_for_bits<kBits>;

  static constexpr int kBias = (1 << (E - 1)) - 1;
  static constexpr int kEmin = 1 - kBias;  // minimum normal exponent
  // Maximum finite exponent: IEEE reserves the all-ones exponent; the
  // finite_nan flavor uses it for finite values.
  static constexpr int kEmax = (F == Flavor::ieee) ? kBias : ((1 << E) - 1) - kBias;

  constexpr SoftFloat() noexcept : bits_(0) {}
  constexpr SoftFloat(double d) noexcept : bits_(from_double(d).bits_) {}
  constexpr SoftFloat(int i) noexcept : SoftFloat(static_cast<double>(i)) {}

  [[nodiscard]] static constexpr SoftFloat from_bits(Storage b) noexcept {
    SoftFloat r;
    r.bits_ = b & mask(kBits);
    return r;
  }
  [[nodiscard]] constexpr Storage bits() const noexcept { return bits_; }

  // -- Special values ------------------------------------------------------
  [[nodiscard]] static constexpr SoftFloat nan() noexcept {
    if constexpr (F == Flavor::ieee) {
      return from_bits(static_cast<Storage>((mask(E) << M) | (Storage{1} << (M - 1))));
    } else {
      return from_bits(static_cast<Storage>(mask(E + M)));  // S.111..111
    }
  }
  [[nodiscard]] static constexpr SoftFloat infinity() noexcept {
    // Dependent on F, so it fires exactly when a finite_nan instantiation
    // calls infinity() (that flavor reuses the all-ones exponent encodings
    // for finite values; the would-be infinity pattern is an ordinary
    // number there).
    static_assert(F == Flavor::ieee, "finite_nan formats have no infinity");
    return from_bits(static_cast<Storage>(mask(E) << M));
  }
  [[nodiscard]] static constexpr SoftFloat max_finite() noexcept {
    if constexpr (F == Flavor::ieee) {
      // Exponent all-ones minus one, mantissa all ones.
      return from_bits(static_cast<Storage>(((mask(E) - 1) << M) | mask(M)));
    } else {
      // All ones except the mantissa LSB (which would be NaN).
      return from_bits(static_cast<Storage>(mask(E + M) - 1));
    }
  }
  [[nodiscard]] static constexpr SoftFloat min_positive_subnormal() noexcept { return from_bits(Storage{1}); }
  [[nodiscard]] static constexpr SoftFloat min_positive_normal() noexcept {
    return from_bits(static_cast<Storage>(Storage{1} << M));
  }
  /// Machine epsilon (spacing just above 1).
  [[nodiscard]] static constexpr double epsilon() noexcept { return std::ldexp(1.0, -M); }

  // -- Predicates ----------------------------------------------------------
  [[nodiscard]] constexpr bool is_zero() const noexcept { return (bits_ & mask(E + M)) == 0; }
  [[nodiscard]] constexpr bool signbit() const noexcept { return (bits_ >> (E + M)) & 1; }
  [[nodiscard]] constexpr bool is_nan() const noexcept {
    const Storage mag = bits_ & mask(E + M);
    if constexpr (F == Flavor::ieee) {
      return (mag >> M) == mask(E) && (mag & mask(M)) != 0;
    } else {
      return mag == mask(E + M);
    }
  }
  [[nodiscard]] constexpr bool is_inf() const noexcept {
    if constexpr (F == Flavor::ieee) {
      return (bits_ & mask(E + M)) == (mask(E) << M);
    } else {
      return false;
    }
  }
  [[nodiscard]] constexpr bool is_finite() const noexcept { return !is_nan() && !is_inf(); }

  // -- Conversions ---------------------------------------------------------
  [[nodiscard]] static constexpr SoftFloat from_double(double d) noexcept {
    const DoubleParts p = decompose_double(d);
    if (p.nan) return nan();
    if (p.inf) {
      if constexpr (F == Flavor::ieee) {
        return p.neg ? negate(infinity()) : infinity();
      } else {
        return nan();
      }
    }
    if (p.zero) return from_bits(static_cast<Storage>(p.neg ? (Storage{1} << (E + M)) : 0));

    // Unbiased exponent of d (value = 1.xxx * 2^et).
    const int et = p.e + 52;
    // Quantum: the weight of the target mantissa LSB.
    const int q = (et > kEmin ? et : kEmin) - M;
    // shift >= 52 - M > 0 always holds (M <= 10), so we always shift right.
    const int shift = q - p.e;
    std::uint64_t t;
    bool round_bit = false, sticky = false;
    if (shift >= 64) {
      t = 0;
      sticky = p.sig != 0;
    } else {
      t = p.sig >> shift;
      round_bit = (shift >= 1) && ((p.sig >> (shift - 1)) & 1);
      sticky = (shift >= 2) && ((p.sig & ((1ull << (shift - 1)) - 1)) != 0);
    }
    if (round_bit && (sticky || (t & 1))) ++t;

    int e_out = (et > kEmin ? et : kEmin);
    if (t >= (1ull << (M + 1))) {  // rounding carried out of the mantissa
      t >>= 1;
      ++e_out;
    }
    if (t == 0) return from_bits(static_cast<Storage>(p.neg ? (Storage{1} << (E + M)) : 0));

    // The biased exponent stays an int until the overflow test: a double's
    // exponent reaches 1023, far past what Storage holds.
    int be;
    std::uint64_t mf;
    if (t < (1ull << M)) {  // subnormal target
      be = 0;
      mf = t;
    } else {
      be = e_out - kEmin + 1;
      mf = t - (1ull << M);
    }
    // Overflow handling.
    if constexpr (F == Flavor::ieee) {
      if (be >= static_cast<int>(mask(E))) {
        const SoftFloat inf = infinity();
        return p.neg ? negate(inf) : inf;
      }
    } else {
      // finite_nan: the very last encoding (all ones) is NaN; anything at or
      // beyond it maps to NaN (OCP OFP8 non-saturating conversion).
      if (be > static_cast<int>(mask(E)) || (be == static_cast<int>(mask(E)) && mf >= mask(M)))
        return nan();
    }
    Storage out = static_cast<Storage>((static_cast<std::uint64_t>(be) << M) | mf);
    if (p.neg) out |= static_cast<Storage>(Storage{1} << (E + M));
    return from_bits(out);
  }

  [[nodiscard]] constexpr double to_double() const noexcept {
    const bool neg = signbit();
    const Storage be = (bits_ >> M) & mask(E);
    const Storage mf = bits_ & mask(M);
    if constexpr (F == Flavor::ieee) {
      if (be == mask(E)) {
        if (mf != 0) return std::numeric_limits<double>::quiet_NaN();
        return neg ? -std::numeric_limits<double>::infinity() : std::numeric_limits<double>::infinity();
      }
    } else {
      if (be == mask(E) && mf == mask(M)) return std::numeric_limits<double>::quiet_NaN();
    }
    if (be == 0) {
      // Subnormal (or zero): mf times the quantum 2^(kEmin - M), itself a
      // normal double, so the product is exact.
      constexpr double quantum =
          std::bit_cast<double>(static_cast<std::uint64_t>(kEmin - M + 1023) << 52);
      const double mag = static_cast<double>(mf) * quantum;
      return neg ? -mag : mag;
    }
    // Normal: rebias the exponent and left-align the mantissa field.
    const auto biased = static_cast<std::uint64_t>(static_cast<int>(be) - kBias + 1023);
    return std::bit_cast<double>((static_cast<std::uint64_t>(neg) << 63) | (biased << 52) |
                                 (static_cast<std::uint64_t>(mf) << (52 - M)));
  }

  explicit constexpr operator double() const noexcept { return to_double(); }
  explicit constexpr operator float() const noexcept { return static_cast<float>(to_double()); }

  // -- Arithmetic (correctly rounded via double) ---------------------------
  friend constexpr SoftFloat operator+(SoftFloat a, SoftFloat b) noexcept {
    return from_double(a.to_double() + b.to_double());
  }
  friend constexpr SoftFloat operator-(SoftFloat a, SoftFloat b) noexcept {
    return from_double(a.to_double() - b.to_double());
  }
  friend constexpr SoftFloat operator*(SoftFloat a, SoftFloat b) noexcept {
    return from_double(a.to_double() * b.to_double());
  }
  friend constexpr SoftFloat operator/(SoftFloat a, SoftFloat b) noexcept {
    return from_double(a.to_double() / b.to_double());
  }
  friend constexpr SoftFloat operator-(SoftFloat a) noexcept { return negate(a); }
  friend constexpr SoftFloat operator+(SoftFloat a) noexcept { return a; }

  constexpr SoftFloat& operator+=(SoftFloat o) noexcept { return *this = *this + o; }
  constexpr SoftFloat& operator-=(SoftFloat o) noexcept { return *this = *this - o; }
  constexpr SoftFloat& operator*=(SoftFloat o) noexcept { return *this = *this * o; }
  constexpr SoftFloat& operator/=(SoftFloat o) noexcept { return *this = *this / o; }

  // -- Comparisons (IEEE semantics: NaN unordered) -------------------------
  friend constexpr bool operator==(SoftFloat a, SoftFloat b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(SoftFloat a, SoftFloat b) noexcept { return !(a == b); }
  friend constexpr bool operator<(SoftFloat a, SoftFloat b) noexcept {
    return a.to_double() < b.to_double();
  }
  friend constexpr bool operator>(SoftFloat a, SoftFloat b) noexcept { return b < a; }
  friend constexpr bool operator<=(SoftFloat a, SoftFloat b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    return !(b < a);
  }
  friend constexpr bool operator>=(SoftFloat a, SoftFloat b) noexcept { return b <= a; }

  [[nodiscard]] static constexpr SoftFloat negate(SoftFloat a) noexcept {
    SoftFloat r = a;
    r.bits_ ^= static_cast<Storage>(Storage{1} << (E + M));
    return r;
  }

 private:
  [[nodiscard]] static constexpr Storage mask(int n) noexcept {
    return static_cast<Storage>((n >= kBits && static_cast<unsigned>(n) >= 8 * sizeof(Storage))
                                    ? ~Storage{0}
                                    : static_cast<Storage>((Storage{1} << n) - 1));
  }

  Storage bits_;
};

// The concrete formats used in the study.
using Float16 = SoftFloat<5, 10, Flavor::ieee>;
using BFloat16 = SoftFloat<8, 7, Flavor::ieee>;
using OFP8E4M3 = SoftFloat<4, 3, Flavor::finite_nan>;
using OFP8E5M2 = SoftFloat<5, 2, Flavor::ieee>;

// Free-function math used by the templated algorithms.
template <int E, int M, Flavor F>
[[nodiscard]] constexpr SoftFloat<E, M, F> abs(SoftFloat<E, M, F> x) noexcept {
  return x.signbit() ? SoftFloat<E, M, F>::negate(x) : x;
}
template <int E, int M, Flavor F>
[[nodiscard]] inline SoftFloat<E, M, F> sqrt(SoftFloat<E, M, F> x) noexcept {
  // Correctly rounded: sqrt in double then one rounding to M <= 10 bits.
  return SoftFloat<E, M, F>::from_double(std::sqrt(x.to_double()));
}
template <int E, int M, Flavor F>
[[nodiscard]] constexpr bool is_number(SoftFloat<E, M, F> x) noexcept {
  return x.is_finite();
}

}  // namespace mfla

// Exact arithmetic engine for tapered-precision formats (posit, takum).
//
// Both posit and takum share the following structure:
//   * monotone two's-complement encoding (negation = two's complement),
//   * a single zero (encoding 0) and a single NaR (encoding 10...0),
//   * a variable-length exponent prefix followed by fraction bits,
//   * rounding defined on the *encoding*: append the infinitely precise
//     tail to the n-bit pattern and round-to-nearest (ties-to-even) as an
//     integer, saturating at +/-maxpos (never to NaR) and +/-minpos (never
//     to zero).
//
// TaperedFloat<Codec> implements +,-,*,/ and sqrt with an exact 128-bit
// integer significand engine: every operation decodes to
// (sign, exponent, 64-bit significand), computes the exact result with
// guard/sticky information, and re-encodes with a single correct rounding.
// There is no intermediate float anywhere, so results are bit-exact
// regardless of host rounding modes.
#pragma once

#include <cstdint>
#include <ostream>
#include <type_traits>

#include "support/floatbits.hpp"
#include "support/int128.hpp"

namespace mfla {

/// A decoded finite non-zero value: magnitude = m * 2^(e - 63),
/// with m in [2^63, 2^64) (the MSB is the implicit leading 1).
struct Unpacked {
  bool neg = false;
  int e = 0;
  std::uint64_t m = 0;
};

/// An exact finite non-zero result before rounding: magnitude =
/// (m + guard/2 + tail) * 2^(e - 63) with m in [2^63, 2^64), where the tail
/// lies in (0, 1/2) when sticky is set and is 0 otherwise.
struct ExactResult {
  bool neg = false;
  int e = 0;
  std::uint64_t m = 0;
  bool guard = false;
  bool sticky = false;
};

namespace detail {

/// Encoding-level round-to-nearest-even with posit/takum saturation:
/// payload+1 on round-up; never produces 0 (minpos clamp) and never crosses
/// into the NaR pattern (maxpos clamp).
template <typename Storage>
[[nodiscard]] Storage round_payload(int nbits, std::uint64_t payload, bool round,
                                    bool rest) noexcept {
  std::uint64_t p = payload;
  if (round && (rest || (p & 1))) ++p;
  const std::uint64_t top = 1ull << (nbits - 1);
  if (p >= top) p = top - 1;  // saturate below NaR
  if (p == 0) p = 1;          // never round a non-zero value to zero
  return static_cast<Storage>(p);
}

/// Rounds the "infinitely precise" payload string prefix ++ body to the
/// N-1 bits after the sign. `prefix` holds the exponent prefix
/// left-aligned in one word (`len` bits, 1 <= len <= 63); `body` holds the
/// bits that follow it, left-aligned. Everything past the word's 64th bit
/// is only ever sticky, so the caller folds any body bits it had to drop
/// (and the operation's guard and sticky) into `sticky`.
template <int N, typename Storage>
[[nodiscard]] Storage round_word(std::uint64_t prefix, int len, std::uint64_t body,
                                 bool sticky) noexcept {
  const std::uint64_t word = prefix | (body >> len);
  sticky = sticky || (body << (64 - len)) != 0;
  constexpr int low = 64 - N;  // bits of the word below the round bit
  const bool round = (word >> low) & 1;
  const bool rest = sticky || (word & ((std::uint64_t{1} << low) - 1)) != 0;
  return round_payload<Storage>(N, word >> (low + 1), round, rest);
}

[[nodiscard]] constexpr int bitlen(unsigned v) noexcept {
  return v == 0 ? 0 : 32 - __builtin_clz(v);
}

// The exact cores of *, / and sqrt on decoded finite non-zero operands.
// They stop before rounding, so TaperedFloat packs their result to an
// encoding and the resident 64-bit grids (arith/on_grid.hpp) round it in
// the unpacked domain.

/// Normalizes a non-zero 128-bit significand r whose unit is 2^(e0 - 126)
/// (so 2^126 <= r means magnitude >= 2^e0) to an ExactResult.
[[nodiscard]] inline ExactResult normalize_u128(bool neg, int e0, u128 r, bool sticky) noexcept {
  const int t = 127 - clz_u128(r);
  r <<= (127 - t);
  const auto lo = static_cast<std::uint64_t>(r);
  return {neg, e0 - 126 + t, static_cast<std::uint64_t>(r >> 64), ((lo >> 63) & 1) != 0,
          sticky || (lo & ((1ull << 63) - 1)) != 0};
}

[[nodiscard]] inline ExactResult mul_exact(const Unpacked& x, const Unpacked& y) noexcept {
  return normalize_u128(x.neg != y.neg, x.e + y.e, static_cast<u128>(x.m) * y.m, false);
}

[[nodiscard]] inline ExactResult div_exact(const Unpacked& x, const Unpacked& y) noexcept {
  const u128 num = static_cast<u128>(x.m) << 64;
  const u128 q = num / y.m;  // in (2^63, 2^65)
  return normalize_u128(x.neg != y.neg, x.e - y.e + 62, q, num % y.m != 0);
}

/// Square root of a positive value.
[[nodiscard]] inline ExactResult sqrt_exact(const Unpacked& x) noexcept {
  u128 mm = x.m;
  int e = x.e;
  if (e & 1) {  // works for negative odd e too: (e & 1) == 1
    mm <<= 1;
    e -= 1;
  }
  const u128 n = mm << 63;
  const std::uint64_t s = isqrt_u128(n);
  const u128 rem = n - static_cast<u128>(s) * s;
  return {false, e / 2, s, false, rem != 0};
}

}  // namespace detail

/// Number wrapper over a tapered codec. The Codec supplies:
///   nbits, Storage, name(),
///   decode_positive(uint64)  -> Unpacked (for payloads in (0, 2^(n-1))),
///   encode_positive(e, m, guard, sticky) -> payload in [1, 2^(n-1)-1],
///   max_exponent() (for traits/reporting).
template <class Codec>
class TaperedFloat {
 public:
  using Storage = typename Codec::Storage;
  static constexpr int kBits = Codec::nbits;
  static constexpr Storage kNaRBits = static_cast<Storage>(std::uint64_t{1} << (kBits - 1));
  static constexpr std::uint64_t kMask =
      (kBits >= 64) ? ~0ull : ((std::uint64_t{1} << kBits) - 1);

  constexpr TaperedFloat() noexcept : bits_(0) {}
  TaperedFloat(double d) noexcept : bits_(from_double(d).bits_) {}
  TaperedFloat(int i) noexcept : TaperedFloat(static_cast<double>(i)) {}

  [[nodiscard]] static constexpr TaperedFloat from_bits(Storage b) noexcept {
    TaperedFloat r;
    r.bits_ = static_cast<Storage>(b & kMask);
    return r;
  }
  [[nodiscard]] constexpr Storage bits() const noexcept { return bits_; }

  [[nodiscard]] static constexpr TaperedFloat nar() noexcept { return from_bits(kNaRBits); }
  [[nodiscard]] static constexpr TaperedFloat zero() noexcept { return from_bits(0); }
  [[nodiscard]] static constexpr TaperedFloat max_positive() noexcept {
    return from_bits(static_cast<Storage>(kNaRBits - 1));
  }
  [[nodiscard]] static constexpr TaperedFloat min_positive() noexcept { return from_bits(Storage{1}); }

  [[nodiscard]] constexpr bool is_nar() const noexcept { return bits_ == kNaRBits; }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return bits_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const noexcept {
    return !is_nar() && (bits_ >> (kBits - 1)) != 0;
  }

  // -- Conversions ---------------------------------------------------------
  [[nodiscard]] static TaperedFloat from_double(double d) noexcept {
    const DoubleParts p = decompose_double(d);
    if (p.nan || p.inf) return nar();
    if (p.zero) return zero();
    // |d| = sig * 2^(p.e), sig in [2^52, 2^53); re-anchor at 64 bits.
    return from_exact(ExactResult{p.neg, p.e + 52, p.sig << 11, false, false});
  }

  [[nodiscard]] double to_double() const noexcept {
    if (is_nar()) return __builtin_nan("");
    if (is_zero()) return 0.0;
    const Unpacked u = unpack();
    return compose_double(u.neg, u.m, u.e - 63);
  }

  explicit operator double() const noexcept { return to_double(); }
  explicit operator float() const noexcept { return static_cast<float>(to_double()); }

  /// Decode to sign/exponent/significand (finite non-zero values only).
  [[nodiscard]] Unpacked unpack() const noexcept {
    std::uint64_t p = bits_;
    bool neg = false;
    if ((p >> (kBits - 1)) & 1) {
      neg = true;
      p = (~p + 1) & kMask;  // two's complement within kBits
    }
    Unpacked u = Codec::decode_positive(p);
    u.neg = neg;
    return u;
  }

  // -- Arithmetic ----------------------------------------------------------
  friend TaperedFloat operator+(TaperedFloat a, TaperedFloat b) noexcept { return add(a, b, false); }
  friend TaperedFloat operator-(TaperedFloat a, TaperedFloat b) noexcept { return add(a, b, true); }

  friend TaperedFloat operator*(TaperedFloat a, TaperedFloat b) noexcept {
    if (a.is_nar() || b.is_nar()) return nar();
    if (a.is_zero() || b.is_zero()) return zero();
    return mul_unpacked(a.unpack(), b.unpack());
  }

  friend TaperedFloat operator/(TaperedFloat a, TaperedFloat b) noexcept {
    if (a.is_nar() || b.is_nar() || b.is_zero()) return nar();
    if (a.is_zero()) return zero();
    return from_exact(detail::div_exact(a.unpack(), b.unpack()));
  }

  friend TaperedFloat operator-(TaperedFloat a) noexcept {
    return from_bits(static_cast<Storage>((~a.bits_ + 1) & kMask));
  }
  friend TaperedFloat operator+(TaperedFloat a) noexcept { return a; }

  TaperedFloat& operator+=(TaperedFloat o) noexcept { return *this = *this + o; }
  TaperedFloat& operator-=(TaperedFloat o) noexcept { return *this = *this - o; }
  TaperedFloat& operator*=(TaperedFloat o) noexcept { return *this = *this * o; }
  TaperedFloat& operator/=(TaperedFloat o) noexcept { return *this = *this / o; }

  [[nodiscard]] friend TaperedFloat sqrt(TaperedFloat a) noexcept {
    if (a.is_nar() || a.is_zero()) return a;
    if (a.is_negative()) return nar();
    return from_exact(detail::sqrt_exact(a.unpack()));
  }

  [[nodiscard]] friend TaperedFloat abs(TaperedFloat a) noexcept {
    return a.is_negative() ? -a : a;
  }

  /// Rounds and packs a finite non-zero exact result.
  [[nodiscard]] static TaperedFloat from_exact(const ExactResult& r) noexcept {
    const Storage payload = Codec::encode_positive(r.e, r.m, r.guard, r.sticky);
    if (!r.neg) return from_bits(payload);
    return from_bits(static_cast<Storage>((~payload + 1) & kMask));
  }

  // -- Comparisons: total order via the signed encoding (NaR is smallest) --
  friend constexpr bool operator==(TaperedFloat a, TaperedFloat b) noexcept { return a.bits_ == b.bits_; }
  friend constexpr bool operator!=(TaperedFloat a, TaperedFloat b) noexcept { return a.bits_ != b.bits_; }
  friend constexpr bool operator<(TaperedFloat a, TaperedFloat b) noexcept {
    return signed_bits(a.bits_) < signed_bits(b.bits_);
  }
  friend constexpr bool operator>(TaperedFloat a, TaperedFloat b) noexcept { return b < a; }
  friend constexpr bool operator<=(TaperedFloat a, TaperedFloat b) noexcept { return !(b < a); }
  friend constexpr bool operator>=(TaperedFloat a, TaperedFloat b) noexcept { return !(a < b); }

  friend std::ostream& operator<<(std::ostream& os, TaperedFloat v) {
    if (v.is_nar()) return os << "NaR";
    return os << v.to_double();
  }

 private:
  [[nodiscard]] static constexpr std::int64_t signed_bits(Storage s) noexcept {
    using SignedStorage = std::make_signed_t<Storage>;
    return static_cast<std::int64_t>(static_cast<SignedStorage>(s));
  }

  /// Shared addition/subtraction entry: special cases, then the exact core.
  [[nodiscard]] static TaperedFloat add(TaperedFloat a, TaperedFloat b, bool negate_b) noexcept {
    if (a.is_nar() || b.is_nar()) return nar();
    if (negate_b) b = -b;
    if (a.is_zero()) return b;
    if (b.is_zero()) return a;
    return add_unpacked(a.unpack(), b.unpack());
  }

  // The arithmetic cores behind operator+/operator*, taking decoded
  // operands. Callers must have handled zero/NaR beforehand.

  /// Exact sum of two finite non-zero values (handles either sign).
  [[nodiscard]] static TaperedFloat add_unpacked(Unpacked x, Unpacked y) noexcept {
    if (x.e < y.e || (x.e == y.e && x.m < y.m)) {
      const Unpacked t = x;
      x = y;
      y = t;
    }
    const bool effective_sub = x.neg != y.neg;
    const u128 big = static_cast<u128>(x.m) << 63;  // headroom bit 127 free
    bool sticky = false;
    const u128 small = shift_right_sticky(static_cast<u128>(y.m) << 63, x.e - y.e, sticky);
    u128 r;
    if (!effective_sub) {
      r = big + small;
    } else {
      r = big - small;
      // With a sticky tail the true result is strictly below r: borrow one
      // ulp so guard/sticky classification stays exact.
      if (sticky) r -= 1;
      if (r == 0) return zero();
    }
    return from_exact(detail::normalize_u128(x.neg, x.e, r, sticky));
  }

  /// Exact product of two finite non-zero values.
  [[nodiscard]] static TaperedFloat mul_unpacked(const Unpacked& x, const Unpacked& y) noexcept {
    return from_exact(detail::mul_exact(x, y));
  }

  Storage bits_;
};

template <class Codec>
[[nodiscard]] constexpr bool is_number(TaperedFloat<Codec> x) noexcept {
  return !x.is_nar();
}

}  // namespace mfla

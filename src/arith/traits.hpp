// Uniform compile-time description of every number format in the study.
//
// NumTraits<T> provides, for each scalar type:
//   * name()              — human-readable format name ("takum16", ...)
//   * bits                — storage width
//   * tapered             — posit/takum-style tapered precision?
//   * epsilon()           — relative spacing just above 1.0 (double)
//   * default_tolerance() — the paper's per-width IRAM convergence tolerance
//                           (1e-2 / 1e-4 / 1e-8 / 1e-12, 1e-20 for float128)
//   * to_double / from_double
#pragma once

#include <cstdint>
#include <string>

#include "arith/dd.hpp"
#include "arith/posit.hpp"
#include "arith/quad.hpp"
#include "arith/softfloat.hpp"
#include "arith/takum.hpp"
#include "arith/tapered.hpp"

namespace mfla {

namespace detail {
[[nodiscard]] constexpr double tolerance_for_bits(int bits) noexcept {
  if (bits <= 8) return 1e-2;
  if (bits <= 16) return 1e-4;
  if (bits <= 32) return 1e-8;
  if (bits <= 64) return 1e-12;
  return 1e-20;
}
}  // namespace detail

template <typename T>
struct NumTraits;

template <>
struct NumTraits<float> {
  static constexpr int bits = 32;
  static constexpr bool tapered = false;
  static std::string name() { return "float32"; }
  static constexpr double epsilon() noexcept { return 0x1p-23; }
  static constexpr double default_tolerance() noexcept { return detail::tolerance_for_bits(bits); }
  static double to_double(float x) noexcept { return x; }
  static float from_double(double x) noexcept { return static_cast<float>(x); }
};

template <>
struct NumTraits<double> {
  static constexpr int bits = 64;
  static constexpr bool tapered = false;
  static std::string name() { return "float64"; }
  static constexpr double epsilon() noexcept { return 0x1p-52; }
  static constexpr double default_tolerance() noexcept { return detail::tolerance_for_bits(bits); }
  static double to_double(double x) noexcept { return x; }
  static double from_double(double x) noexcept { return x; }
};

template <>
struct NumTraits<Quad> {
  static constexpr int bits = 128;
  static constexpr bool tapered = false;
  static std::string name() { return "float128"; }
  static constexpr double epsilon() noexcept { return 0x1p-112; }
  static constexpr double default_tolerance() noexcept { return 1e-20; }
  static double to_double(Quad x) noexcept { return static_cast<double>(x); }
  static Quad from_double(double x) noexcept { return x; }
};

template <>
struct NumTraits<DoubleDouble> {
  static constexpr int bits = 128;  // storage width (two packed doubles)
  static constexpr bool tapered = false;
  static std::string name() { return "dd"; }
  /// Relative spacing of the normalized pair: 2^-104 (the lo word extends
  /// the 53-bit hi significand by another 52 significant bits minimum).
  static constexpr double epsilon() noexcept { return 0x1p-104; }
  /// dd serves as the reference fast tier, so it inherits the reference
  /// tolerance — the certification bound in core/reference_tier.hpp decides
  /// whether a dd solve actually met it.
  static constexpr double default_tolerance() noexcept { return 1e-20; }
  static double to_double(DoubleDouble x) noexcept { return x.to_double(); }
  static DoubleDouble from_double(double x) noexcept { return DoubleDouble::from_double(x); }
};

template <int E, int M, Flavor F>
struct NumTraits<SoftFloat<E, M, F>> {
  using T = SoftFloat<E, M, F>;
  static constexpr int bits = T::kBits;
  static constexpr bool tapered = false;
  static std::string name() {
    if constexpr (E == 5 && M == 10) return "float16";
    if constexpr (E == 8 && M == 7) return "bfloat16";
    if constexpr (E == 4 && M == 3) return "OFP8 E4M3";
    if constexpr (E == 5 && M == 2) return "OFP8 E5M2";
    return "float" + std::to_string(bits) + "_e" + std::to_string(E) + "m" + std::to_string(M);
  }
  static constexpr double epsilon() noexcept { return T::epsilon(); }
  static constexpr double default_tolerance() noexcept { return detail::tolerance_for_bits(bits); }
  static double to_double(T x) noexcept { return x.to_double(); }
  static T from_double(double x) noexcept { return T::from_double(x); }
};

template <int N, int ES>
struct NumTraits<Posit<N, ES>> {
  using T = Posit<N, ES>;
  static constexpr int bits = N;
  static constexpr bool tapered = true;
  static std::string name() { return PositCodec<N, ES>::name(); }
  /// Spacing just above 1: fraction width there is N - 3 - ES bits.
  static constexpr double epsilon() noexcept {
    constexpr int fbits = N - 3 - ES;
    return fbits > 0 ? __builtin_ldexp(1.0, -fbits) : 1.0;
  }
  static constexpr double default_tolerance() noexcept { return detail::tolerance_for_bits(bits); }
  static double to_double(T x) noexcept { return x.to_double(); }
  static T from_double(double x) noexcept { return T::from_double(x); }
};

template <int N>
struct NumTraits<Takum<N>> {
  using T = Takum<N>;
  static constexpr int bits = N;
  static constexpr bool tapered = true;
  static std::string name() { return TakumCodec<N>::name(); }
  /// Spacing just above 1: c = 0 needs no characteristic bits, so the
  /// fraction spans N - 5 bits.
  static constexpr double epsilon() noexcept {
    constexpr int fbits = N - 5;
    return fbits > 0 ? __builtin_ldexp(1.0, -fbits) : 1.0;
  }
  static constexpr double default_tolerance() noexcept { return detail::tolerance_for_bits(bits); }
  static double to_double(T x) noexcept { return x.to_double(); }
  static T from_double(double x) noexcept { return T::from_double(x); }
};

/// Did converting `x` into format T lose the value entirely (zero, infinity
/// or NaN from a finite non-zero input)? This is the paper's per-matrix
/// "dynamic range exceeded" test used for the ∞σ classification.
/// Posit/takum saturate, so they never trip this.
template <typename T>
[[nodiscard]] bool conversion_loses_value(double x) {
  if (x == 0.0 || !std::isfinite(x)) return false;
  const double back = NumTraits<T>::to_double(NumTraits<T>::from_double(x));
  return back == 0.0 || !std::isfinite(back);
}

}  // namespace mfla

// Minifloat (float16 / bfloat16 / OFP8) unit tests: exhaustive round-trips,
// spec-mandated constants, correct rounding against a double oracle, and
// special-value semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "arith/softfloat.hpp"
#include "arith/traits.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

// ---- Spec constants ---------------------------------------------------

TEST(Float16, KnownValues) {
  EXPECT_EQ(Float16(1.0).bits(), 0x3c00u);
  EXPECT_EQ(Float16(-2.0).bits(), 0xc000u);
  EXPECT_EQ(Float16(65504.0).bits(), 0x7bffu);  // max finite
  EXPECT_DOUBLE_EQ(Float16::max_finite().to_double(), 65504.0);
  EXPECT_DOUBLE_EQ(Float16::min_positive_normal().to_double(), 0x1p-14);
  EXPECT_DOUBLE_EQ(Float16::min_positive_subnormal().to_double(), 0x1p-24);
  EXPECT_DOUBLE_EQ(Float16::epsilon(), 0x1p-10);
}

TEST(BFloat16, KnownValues) {
  EXPECT_EQ(BFloat16(1.0).bits(), 0x3f80u);
  EXPECT_DOUBLE_EQ(BFloat16::max_finite().to_double(), 0x1.fep127);
  EXPECT_DOUBLE_EQ(BFloat16::epsilon(), 0x1p-7);
  // bfloat16 is float32 truncated: same dynamic range as float.
  EXPECT_GT(BFloat16::max_finite().to_double(), 3e38);
}

TEST(OFP8E4M3, SpecConstants) {
  // OCP OFP8 spec: E4M3 max finite = 448, min subnormal = 2^-9, NaN = S.1111.111.
  EXPECT_DOUBLE_EQ(OFP8E4M3::max_finite().to_double(), 448.0);
  EXPECT_DOUBLE_EQ(OFP8E4M3::min_positive_subnormal().to_double(), 0x1p-9);
  EXPECT_DOUBLE_EQ(OFP8E4M3::min_positive_normal().to_double(), 0x1p-6);
  EXPECT_TRUE(OFP8E4M3::from_bits(0x7f).is_nan());
  EXPECT_TRUE(OFP8E4M3::from_bits(0xff).is_nan());
  EXPECT_FALSE(OFP8E4M3::from_bits(0x7e).is_nan());  // 448, the max finite
  EXPECT_DOUBLE_EQ(OFP8E4M3::from_bits(0x7e).to_double(), 448.0);
  EXPECT_EQ(OFP8E4M3(1.0).bits(), 0x38u);
}

TEST(OFP8E5M2, SpecConstants) {
  // E5M2 is IEEE-like: max finite = 57344, infinities present.
  EXPECT_DOUBLE_EQ(OFP8E5M2::max_finite().to_double(), 57344.0);
  EXPECT_DOUBLE_EQ(OFP8E5M2::min_positive_subnormal().to_double(), 0x1p-16);
  EXPECT_TRUE(OFP8E5M2::infinity().is_inf());
  EXPECT_EQ(OFP8E5M2(1.0).bits(), 0x3cu);
}

// ---- Exhaustive round trips --------------------------------------------

template <typename T>
void exhaustive_roundtrip() {
  for (std::uint32_t b = 0; b < (1u << T::kBits); ++b) {
    const T x = T::from_bits(static_cast<typename T::Storage>(b));
    const double d = x.to_double();
    if (x.is_nan()) {
      EXPECT_TRUE(std::isnan(d));
      continue;
    }
    const T back = T::from_double(d);
    if (x.is_zero()) {
      EXPECT_TRUE(back.is_zero());
      continue;
    }
    EXPECT_EQ(back.bits(), x.bits()) << "bits=" << b << " d=" << d;
  }
}

TEST(SoftFloatRoundTrip, E4M3) { exhaustive_roundtrip<OFP8E4M3>(); }
TEST(SoftFloatRoundTrip, E5M2) { exhaustive_roundtrip<OFP8E5M2>(); }
TEST(SoftFloatRoundTrip, Float16) { exhaustive_roundtrip<Float16>(); }
TEST(SoftFloatRoundTrip, BFloat16) { exhaustive_roundtrip<BFloat16>(); }

// ---- Correct rounding oracle --------------------------------------------
// For M <= 10, rounding a double to the format must pick one of the two
// neighboring representable values, the nearer one (ties to even mantissa).

template <typename T>
void check_rounding(double x) {
  const T r = T::from_double(x);
  if (r.is_nan() || r.is_inf()) return;  // range handling checked elsewhere
  const double rd = r.to_double();
  // Scan all representable values for the true nearest (tie -> even).
  double best = std::numeric_limits<double>::infinity();
  double bestval = 0;
  bool best_even = false;
  for (std::uint32_t b = 0; b < (1u << T::kBits); ++b) {
    const T c = T::from_bits(static_cast<typename T::Storage>(b));
    if (c.is_nan() || c.is_inf()) continue;
    const double cd = c.to_double();
    const double d = std::abs(cd - x);
    const bool even = (b & 1u) == 0;
    if (d < best || (d == best && even && !best_even)) {
      best = d;
      bestval = cd;
      best_even = even;
    }
  }
  EXPECT_DOUBLE_EQ(rd, bestval) << "x=" << x;
}

TEST(SoftFloatRounding, E4M3RandomOracle) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    check_rounding<OFP8E4M3>(rng.normal() * rng.log_uniform(-3.0, 2.5));
  }
}

TEST(SoftFloatRounding, Float16RandomOracle) {
  Rng rng(12);
  for (int i = 0; i < 4000; ++i) {
    check_rounding<Float16>(rng.normal() * rng.log_uniform(-5.0, 4.5));
  }
}

TEST(SoftFloatRounding, TieToEven) {
  // 1 + eps/2 is exactly between 1 and 1+eps: must round to 1 (even).
  EXPECT_DOUBLE_EQ(Float16::from_double(1.0 + 0x1p-11).to_double(), 1.0);
  // 1 + 3*eps/2 is between 1+eps and 1+2eps: must round to 1+2eps (even).
  EXPECT_DOUBLE_EQ(Float16::from_double(1.0 + 3 * 0x1p-11).to_double(), 1.0 + 2 * 0x1p-10);
}

// ---- Exhaustive OFP8 arithmetic vs double oracle -------------------------

template <typename T, typename Op>
void exhaustive_binary_op(Op op, bool skip_div_zero) {
  for (std::uint32_t a = 0; a < 256; ++a) {
    const T xa = T::from_bits(static_cast<typename T::Storage>(a));
    if (xa.is_nan() || xa.is_inf()) continue;
    for (std::uint32_t b = 0; b < 256; ++b) {
      const T xb = T::from_bits(static_cast<typename T::Storage>(b));
      if (xb.is_nan() || xb.is_inf()) continue;
      if (skip_div_zero && xb.is_zero()) continue;
      const double exact = op(xa.to_double(), xb.to_double());
      const T got = op(xa, xb);
      const T want = T::from_double(exact);  // single rounding of the exact result
      if (want.is_nan()) {
        EXPECT_TRUE(got.is_nan()) << a << " op " << b;
      } else if (want.is_inf()) {
        EXPECT_TRUE(got.is_inf()) << a << " op " << b;
      } else {
        EXPECT_DOUBLE_EQ(got.to_double(), want.to_double()) << a << " op " << b;
      }
    }
  }
}

// The double computation of a*b, a+b, a/b for 8-bit operands is exact
// (or correctly rounded with innocuous double rounding), so from_double of
// it is the correctly rounded result.
TEST(OFP8Exhaustive, E4M3Add) {
  exhaustive_binary_op<OFP8E4M3>([](auto x, auto y) { return x + y; }, false);
}
TEST(OFP8Exhaustive, E4M3Mul) {
  exhaustive_binary_op<OFP8E4M3>([](auto x, auto y) { return x * y; }, false);
}
TEST(OFP8Exhaustive, E5M2Add) {
  exhaustive_binary_op<OFP8E5M2>([](auto x, auto y) { return x + y; }, false);
}
TEST(OFP8Exhaustive, E5M2Mul) {
  exhaustive_binary_op<OFP8E5M2>([](auto x, auto y) { return x * y; }, false);
}
TEST(OFP8Exhaustive, E5M2Div) {
  exhaustive_binary_op<OFP8E5M2>([](auto x, auto y) { return x / y; }, true);
}

// ---- Overflow / special semantics ----------------------------------------

TEST(SoftFloatSpecial, E4M3OverflowMakesNaN) {
  // Non-saturating OCP conversion: above max finite -> NaN, no infinity.
  EXPECT_TRUE(OFP8E4M3(1000.0).is_nan());
  EXPECT_TRUE((OFP8E4M3(448.0) + OFP8E4M3(448.0)).is_nan());
  EXPECT_FALSE(OFP8E4M3(448.0).is_nan());
  // Just above 448 but below the midpoint to the (nonexistent) next value.
  EXPECT_TRUE(OFP8E4M3(480.1).is_nan());
}

TEST(SoftFloatSpecial, E5M2OverflowMakesInf) {
  EXPECT_TRUE(OFP8E5M2(1e6).is_inf());
  EXPECT_TRUE((OFP8E5M2(57344.0) + OFP8E5M2(57344.0)).is_inf());
}

// A double's exponent reaches 1023, far beyond what an 8-bit encoding's
// exponent field holds: every finite magnitude above the largest binade
// must overflow (to inf, or NaN for E4M3), never wrap to a small value.
template <typename T>
void expect_overflow_beyond_range() {
  for (int e = T::kEmax + 1; e <= 1023; ++e) {
    for (const double f : {1.0, 1.5, 1.75}) {
      for (const double x : {std::ldexp(f, e), -std::ldexp(f, e)}) {
        const T t = T::from_double(x);
        if constexpr (T::kFlavor == Flavor::ieee) {
          EXPECT_TRUE(t.is_inf() && t.signbit() == (x < 0)) << NumTraits<T>::name() << " " << x;
        } else {
          EXPECT_TRUE(t.is_nan()) << NumTraits<T>::name() << " " << x;
        }
        EXPECT_TRUE(conversion_loses_value<T>(x)) << NumTraits<T>::name() << " " << x;
      }
    }
  }
}

TEST(SoftFloatSpecial, HugeExponentsOverflowInsteadOfWrapping) {
  EXPECT_TRUE(OFP8E4M3::from_double(0x1p250).is_nan());
  EXPECT_TRUE(OFP8E4M3::from_double(0x1p249).is_nan());
  EXPECT_TRUE(OFP8E5M2::from_double(0x1p241).is_inf());
  expect_overflow_beyond_range<OFP8E4M3>();
  expect_overflow_beyond_range<OFP8E5M2>();
  expect_overflow_beyond_range<Float16>();
  expect_overflow_beyond_range<BFloat16>();
}

TEST(SoftFloatSpecial, UnderflowToZero) {
  EXPECT_TRUE(OFP8E4M3(1e-10).is_zero());
  EXPECT_TRUE(Float16(1e-30).is_zero());
  EXPECT_FALSE(Float16(0x1p-24).is_zero());  // min subnormal survives
}

TEST(SoftFloatSpecial, NanPropagation) {
  const Float16 nan = Float16::nan();
  EXPECT_TRUE((nan + Float16(1.0)).is_nan());
  EXPECT_TRUE((Float16(1.0) * nan).is_nan());
  EXPECT_TRUE(sqrt(Float16(-1.0)).is_nan());
  EXPECT_FALSE(nan == nan);  // IEEE semantics
  EXPECT_TRUE(nan != nan);
}

TEST(SoftFloatSpecial, SignedZeros) {
  EXPECT_TRUE(Float16(-0.0) == Float16(0.0));
  EXPECT_TRUE(Float16(-0.0).signbit());
  EXPECT_FALSE(Float16(0.0).signbit());
}

TEST(SoftFloatSpecial, DivisionByZero) {
  EXPECT_TRUE((OFP8E5M2(1.0) / OFP8E5M2(0.0)).is_inf());
  EXPECT_TRUE((Float16(-1.0) / Float16(0.0)).is_inf());
  EXPECT_TRUE((Float16(0.0) / Float16(0.0)).is_nan());
}

TEST(SoftFloatSpecial, SubnormalArithmetic) {
  const Float16 tiny = Float16::min_positive_subnormal();
  EXPECT_DOUBLE_EQ((tiny + tiny).to_double(), 2 * tiny.to_double());
  EXPECT_TRUE((tiny * tiny).is_zero());  // underflows
}

// ---- Comparisons -----------------------------------------------------------

TEST(SoftFloatCompare, TotalOrderOnFinite) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double a = rng.normal() * 10;
    const double b = rng.normal() * 10;
    const Float16 fa(a), fb(b);
    EXPECT_EQ(fa < fb, fa.to_double() < fb.to_double());
    EXPECT_EQ(fa == fb, fa.to_double() == fb.to_double());
  }
}

TEST(SoftFloatTraits, NamesAndTolerances) {
  EXPECT_EQ(NumTraits<Float16>::name(), "float16");
  EXPECT_EQ(NumTraits<BFloat16>::name(), "bfloat16");
  EXPECT_EQ(NumTraits<OFP8E4M3>::name(), "OFP8 E4M3");
  EXPECT_EQ(NumTraits<OFP8E5M2>::name(), "OFP8 E5M2");
  EXPECT_DOUBLE_EQ(NumTraits<OFP8E4M3>::default_tolerance(), 1e-2);
  EXPECT_DOUBLE_EQ(NumTraits<Float16>::default_tolerance(), 1e-4);
  EXPECT_DOUBLE_EQ(NumTraits<float>::default_tolerance(), 1e-8);
  EXPECT_DOUBLE_EQ(NumTraits<double>::default_tolerance(), 1e-12);
  EXPECT_DOUBLE_EQ(NumTraits<Quad>::default_tolerance(), 1e-20);
}

TEST(SoftFloatTraits, ConversionLossDetection) {
  EXPECT_TRUE(conversion_loses_value<OFP8E4M3>(1000.0));   // overflow -> NaN
  EXPECT_TRUE(conversion_loses_value<OFP8E4M3>(1e-12));    // underflow -> 0
  EXPECT_FALSE(conversion_loses_value<OFP8E4M3>(1.0));
  EXPECT_FALSE(conversion_loses_value<OFP8E4M3>(0.0));
  EXPECT_TRUE(conversion_loses_value<Float16>(1e9));
  EXPECT_FALSE(conversion_loses_value<BFloat16>(1e30));
}

}  // namespace
}  // namespace mfla

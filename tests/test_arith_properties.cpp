// Cross-format property tests: every emulated format must satisfy the same
// algebraic and conversion invariants (typed test suite over the full
// format lineup of the paper).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "arith/format_registry.hpp"
#include "arith/traits.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

template <typename T>
class ArithProperty : public ::testing::Test {};

using AllFormats = ::testing::Types<OFP8E4M3, OFP8E5M2, Posit8, Takum8, Float16, BFloat16,
                                    Posit16, Takum16, Posit32, Takum32, Posit64, Takum64>;
TYPED_TEST_SUITE(ArithProperty, AllFormats);

template <typename T>
bool usable(T x) {
  return is_number(x);
}

TYPED_TEST(ArithProperty, ZeroIdentity) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1001u);
  for (int i = 0; i < 2000; ++i) {
    const T x = NumTraits<T>::from_double(rng.normal() * rng.log_uniform(-1.5, 1.5));
    if (!usable(x)) continue;
    EXPECT_EQ(NumTraits<T>::to_double(x + T(0)), NumTraits<T>::to_double(x));
    EXPECT_EQ(NumTraits<T>::to_double(T(0) + x), NumTraits<T>::to_double(x));
  }
}

TYPED_TEST(ArithProperty, OneIsMultiplicativeIdentity) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1003u);
  for (int i = 0; i < 2000; ++i) {
    const T x = NumTraits<T>::from_double(rng.normal() * rng.log_uniform(-1.5, 1.5));
    if (!usable(x)) continue;
    EXPECT_EQ(NumTraits<T>::to_double(x * T(1)), NumTraits<T>::to_double(x));
    EXPECT_EQ(NumTraits<T>::to_double(x / T(1)), NumTraits<T>::to_double(x));
  }
}

TYPED_TEST(ArithProperty, Commutativity) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1005u);
  for (int i = 0; i < 5000; ++i) {
    const T a = NumTraits<T>::from_double(rng.normal() * rng.log_uniform(-2.0, 2.0));
    const T b = NumTraits<T>::from_double(rng.normal() * rng.log_uniform(-2.0, 2.0));
    if (!usable(a) || !usable(b)) continue;
    const double ab = NumTraits<T>::to_double(a + b);
    const double ba = NumTraits<T>::to_double(b + a);
    EXPECT_TRUE(ab == ba || (std::isnan(ab) && std::isnan(ba)));
    const double m1 = NumTraits<T>::to_double(a * b);
    const double m2 = NumTraits<T>::to_double(b * a);
    EXPECT_TRUE(m1 == m2 || (std::isnan(m1) && std::isnan(m2)));
  }
}

TYPED_TEST(ArithProperty, NegationSymmetry) {
  // Rounding is sign-symmetric in every format here: -(a op b) == (-a) op (-b).
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1007u);
  for (int i = 0; i < 5000; ++i) {
    const T a = NumTraits<T>::from_double(rng.normal() * rng.log_uniform(-2.0, 2.0));
    const T b = NumTraits<T>::from_double(rng.normal() * rng.log_uniform(-2.0, 2.0));
    if (!usable(a) || !usable(b)) continue;
    const double lhs = NumTraits<T>::to_double(-(a + b));
    const double rhs = NumTraits<T>::to_double((-a) + (-b));
    EXPECT_TRUE(lhs == rhs || (std::isnan(lhs) && std::isnan(rhs)));
    const double lm = NumTraits<T>::to_double(-(a * b));
    const double rm = NumTraits<T>::to_double((-a) * b);
    EXPECT_TRUE(lm == rm || (std::isnan(lm) && std::isnan(rm)));
  }
}

TYPED_TEST(ArithProperty, SubtractionIsAddOfNegation) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1009u);
  for (int i = 0; i < 5000; ++i) {
    const T a = NumTraits<T>::from_double(rng.normal());
    const T b = NumTraits<T>::from_double(rng.normal());
    if (!usable(a) || !usable(b)) continue;
    const double lhs = NumTraits<T>::to_double(a - b);
    const double rhs = NumTraits<T>::to_double(a + (-b));
    EXPECT_TRUE(lhs == rhs || (std::isnan(lhs) && std::isnan(rhs)));
  }
}

TYPED_TEST(ArithProperty, ExactCancellation) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1011u);
  for (int i = 0; i < 2000; ++i) {
    const T x = NumTraits<T>::from_double(rng.normal() * rng.log_uniform(-1.0, 1.0));
    if (!usable(x)) continue;
    const double d = NumTraits<T>::to_double(x - x);
    EXPECT_EQ(d, 0.0);
  }
}

TYPED_TEST(ArithProperty, MonotoneConversion) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1013u);
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.normal() * rng.log_uniform(-2.0, 2.0);
    const double b = rng.normal() * rng.log_uniform(-2.0, 2.0);
    const T ta = NumTraits<T>::from_double(a);
    const T tb = NumTraits<T>::from_double(b);
    if (!usable(ta) || !usable(tb)) continue;
    if (a < b) {
      EXPECT_LE(NumTraits<T>::to_double(ta), NumTraits<T>::to_double(tb))
          << "a=" << a << " b=" << b;
    }
  }
}

// from_double over the whole double range, not only near one: every binade
// from the smallest subnormal to the largest finite double, four points
// each. Results must not decrease (an overflow NaN counts as +inf), and a
// negative input must give the negated result.
TYPED_TEST(ArithProperty, MonotoneConversionOverTheDoubleRange) {
  using T = TypeParam;
  double prev = 0.0;
  double prev_x = 0.0;
  for (int e = -1074; e <= 1023; ++e) {
    for (const double f : {1.0, 1.25, 1.5, 1.75}) {
      const double x = std::ldexp(f, e);
      if (x == prev_x) continue;  // the subnormal binades repeat points
      const double got = NumTraits<T>::to_double(NumTraits<T>::from_double(x));
      const double key = std::isnan(got) ? std::numeric_limits<double>::infinity() : got;
      ASSERT_GE(key, prev) << NumTraits<T>::name() << " at " << x << " after " << prev_x;
      const double neg = NumTraits<T>::to_double(NumTraits<T>::from_double(-x));
      if (!std::isnan(got)) {
        ASSERT_EQ(neg, -got) << NumTraits<T>::name() << " at " << -x;
      }
      prev = key;
      prev_x = x;
    }
  }
}

TYPED_TEST(ArithProperty, ConversionRelativeError) {
  // For values near one, the round trip must be accurate to epsilon().
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1015u);
  const double eps = NumTraits<T>::epsilon();
  for (int i = 0; i < 5000; ++i) {
    const double x = (rng.uniform() < 0.5 ? -1 : 1) * rng.uniform(1.0, 2.0);
    const double back = NumTraits<T>::to_double(NumTraits<T>::from_double(x));
    EXPECT_NEAR(back, x, eps * std::abs(x) * 0.5000001) << "x=" << x;
  }
}

TYPED_TEST(ArithProperty, SqrtSquareConsistency) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1017u);
  const double eps = NumTraits<T>::epsilon();
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0.25, 4.0);
    const T t = NumTraits<T>::from_double(x);
    if (!usable(t)) continue;
    const T s = sqrt(t);
    const double s2 = NumTraits<T>::to_double(s * s);
    // sqrt then square loses at most a few ulps.
    EXPECT_NEAR(s2, NumTraits<T>::to_double(t), 4 * eps * x) << "x=" << x;
  }
}

TYPED_TEST(ArithProperty, AbsAndComparisons) {
  using T = TypeParam;
  Rng rng(NumTraits<T>::bits * 1019u);
  for (int i = 0; i < 5000; ++i) {
    const T x = NumTraits<T>::from_double(rng.normal() * 3);
    if (!usable(x)) continue;
    const double xd = NumTraits<T>::to_double(x);
    EXPECT_EQ(NumTraits<T>::to_double(abs(x)), std::abs(xd));
    EXPECT_EQ(x < T(0), xd < 0.0);
  }
}

TYPED_TEST(ArithProperty, ToleranceMatchesPaper) {
  using T = TypeParam;
  const double tol = NumTraits<T>::default_tolerance();
  switch (NumTraits<T>::bits) {
    case 8: EXPECT_DOUBLE_EQ(tol, 1e-2); break;
    case 16: EXPECT_DOUBLE_EQ(tol, 1e-4); break;
    case 32: EXPECT_DOUBLE_EQ(tol, 1e-8); break;
    case 64: EXPECT_DOUBLE_EQ(tol, 1e-12); break;
    default: FAIL() << "unexpected width";
  }
}

// ---- Registry coverage -------------------------------------------------------

TEST(FormatRegistry, SixteenFormats) {
  EXPECT_EQ(all_formats().size(), 16u);
  std::map<int, std::size_t> per_width;
  for (const auto& f : all_formats()) {
    ++per_width[f.bits];
    // Both 128-bit entries are reference-only: dd (the fast tier) and
    // float128 (the oracle); neither is a format under evaluation.
    EXPECT_EQ(f.reference_only, f.bits == 128) << f.name;
  }
  EXPECT_EQ(per_width, (std::map<int, std::size_t>{{8, 4}, {16, 4}, {32, 3}, {64, 3}, {128, 2}}));
}

TEST(FormatRegistry, DispatchRoundTrip) {
  for (const auto& f : all_formats()) {
    const std::string name = dispatch_format(f.id, [](auto tag) {
      using T = typename decltype(tag)::type;
      return NumTraits<T>::name();
    });
    EXPECT_EQ(name, f.name);
    const int bits = dispatch_format(f.id, [](auto tag) {
      using T = typename decltype(tag)::type;
      return NumTraits<T>::bits;
    });
    EXPECT_EQ(bits, f.bits);
  }
}

TEST(FormatRegistry, InfoLookup) {
  EXPECT_EQ(format_info(FormatId::takum16).name, "takum16");
  EXPECT_EQ(format_info(FormatId::float128).bits, 128);
}

// ---- Quad reference ----------------------------------------------------------

TEST(QuadArithmetic, Precision) {
  const Quad third = Quad(1.0) / Quad(3.0);
  const Quad back = third * Quad(3.0);
  EXPECT_NEAR(static_cast<double>(back), 1.0, 1e-30);
  EXPECT_NEAR(static_cast<double>(sqrt(Quad(2.0)) * sqrt(Quad(2.0))), 2.0, 1e-30);
  EXPECT_TRUE(is_number(Quad(1.0)));
  EXPECT_FALSE(is_number(Quad(1.0) / Quad(0.0)));
}

}  // namespace
}  // namespace mfla

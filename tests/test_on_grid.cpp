// Oracle tests for the resident arithmetic (arith/on_grid.hpp): the exact
// engines (SoftFloat, TaperedFloat) are the oracle for every format that
// runs resident. A resident result matches when its encoding does (8 bits),
// when its double does (16 and 32 bits) or when its encoding and its
// unpacked fields do (64 bits).
//
//  * Rounding: OnGrid<T>(x) equals T::from_double(x) on every grid point
//    (all encodings of the 8- and 16-bit formats, sampled plus every binade
//    boundary for 32 and 64 bits), on every midpoint and every power of two
//    between neighbours (the truncated-exponent ties of posits), one
//    double-ulp either side of each, and on the special doubles.
//  * Fraction bits: the per-binade table every tapered grid rounds by,
//    against the spacing of the codecs' own encodings.
//  * Operations: + - * / and sqrt on boundary x boundary operands and on
//    10^6 random pairs per operation, plus constructed 32-bit products that
//    only round-to-odd gets right, constructed 64-bit sums for every
//    exponent gap and binade, and constructed 64-bit products on and next
//    to the ties of the grid. All 2^16 pairs of the 8-bit formats run on
//    tier-1; DISABLED_ tests (run in CI) cover all 2^32 pairs of the 16-bit
//    formats and >= 10^8 pairs of the 32- and 64-bit ones.
//  * Predicates: comparisons, abs, negation and is_number on NaR/NaN,
//    +-0, infinities, the ends of the range and ordinary values; for the
//    8-bit formats on every encoding and every pair, with every encoding's
//    round trip.
//  * SpMV: the resident CSR matvec (detail::ResidentOp over CsrMatrix<T>)
//    and the T round trip a foreign operator takes, against the exact
//    engine's kernels::spmv over T, on a Laplacian and on a hand-built
//    matrix of empty rows, overflow, underflow, NaN/NaR and -0 products.
//  * Whole solves: partialschur<T>/lanczos_eigs<T> (resident) against the
//    solver bodies run over T itself, digest for digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "arith/on_grid.hpp"
#include "core/krylov_schur.hpp"
#include "core/lanczos.hpp"
#include "datasets/general_corpus.hpp"
#include "datasets/graph_corpus.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "on_grid_match.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

template <typename T>
[[nodiscard]] constexpr int width() {
  return T::kBits;
}

/// All encodings of T: the low width<T>() bits.
template <typename T>
[[nodiscard]] constexpr std::uint64_t mask() {
  return ~std::uint64_t{0} >> (64 - width<T>());
}

template <typename T>
[[nodiscard]] T from_encoding(std::uint64_t b) {
  return T::from_bits(static_cast<typename T::Storage>(b));
}

template <typename T>
[[nodiscard]] double value_of(std::uint64_t b) {
  return from_encoding<T>(b).to_double();
}

/// Counts mismatches and reports the first few; `detail` (a callable
/// returning the message) runs only on a mismatch.
class Tally {
 public:
  explicit Tally(std::string what) : what_(std::move(what)) {}
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;
  ~Tally() { EXPECT_EQ(bad_, 0u) << what_ << ": mismatches in " << checks_ << " checks"; }
  template <class Detail>
  void check(bool ok, const Detail& detail) {
    ++checks_;
    if (!ok && ++bad_ <= 5) ADD_FAILURE() << what_ << ": " << detail();
  }

 private:
  std::string what_;
  std::uint64_t checks_ = 0, bad_ = 0;
};

[[nodiscard]] std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

// ---- Rounding -------------------------------------------------------------------

template <typename T>
void check_round(Tally& tally, double x) {
  for (const double y : {x, -x}) {
    const OnGrid<T> got(y);
    const T want = T::from_double(y);
    tally.check(matches(got, want), [&] {
      return "round(" + hex(y) + ") = " + hex(got.to_double()) + ", exact engine " +
             hex(want.to_double());
    });
  }
}

/// The grid point v, its neighbour w above, and what lies between: the
/// midpoint, every power of two (posit ties where exponent bits are
/// truncated), and one double-ulp either side of each.
template <typename T>
void check_between(Tally& tally, double v, double w) {
  std::vector<double> probes = {v};
  if (std::isfinite(w) && w > v) {
    probes.push_back((v + w) * 0.5);
    if (v > 0.0) {
      double p = std::ldexp(1.0, std::ilogb(v));
      while (p <= v) p *= 2.0;
      for (; p < w; p *= 2.0) probes.push_back(p);
    }
  }
  for (const double p : probes) {
    check_round<T>(tally, p);
    check_round<T>(tally, std::nextafter(p, kInf));
    check_round<T>(tally, std::nextafter(p, 0.0));
  }
}

/// Positive encodings to probe: all of them for 8 and 16 bits; for 32/64 bits the
/// ends of the range (saturation, truncated exponents), a few around every
/// binade boundary, and a random sample.
template <typename T>
std::vector<std::uint64_t> positive_encodings() {
  constexpr std::uint64_t kTop = std::uint64_t{1} << (width<T>() - 1);  // sign bit
  std::vector<std::uint64_t> out;
  if constexpr (width<T>() <= 16) {
    for (std::uint64_t b = 0; b < kTop; ++b) out.push_back(b);
    return out;
  } else {
    for (std::uint64_t b = 0; b < 4096; ++b) {
      out.push_back(b);
      out.push_back(kTop - 1 - b);
    }
    for (int e = -300; e <= 300; ++e) {
      const std::uint64_t p = T::from_double(std::ldexp(1.0, e)).bits();
      for (std::uint64_t d = 0; d < 4; ++d) {
        out.push_back((p - d) & (kTop - 1));
        out.push_back((p + d) & (kTop - 1));
      }
    }
    SplitMix64 sm(0x0a61d);
    for (int i = 0; i < 200000; ++i) out.push_back(sm.next() & (kTop - 1));
    return out;
  }
}

template <typename T>
void expect_rounding_matches_engine() {
  Tally tally(NumTraits<T>::name() + " rounding");
  constexpr std::uint64_t kTop = std::uint64_t{1} << (width<T>() - 1);
  for (const std::uint64_t b : positive_encodings<T>()) {
    const double v = value_of<T>(b);
    if (!std::isfinite(v)) {
      check_round<T>(tally, v);
      continue;
    }
    check_between<T>(tally, v, b + 1 < kTop ? value_of<T>(b + 1) : kInf);
    // Every value converts exactly both ways.
    const T x = from_encoding<T>(b);
    const auto where = [&] { return "encoding conversion at " + hex(v); };
    tally.check(bits_of(OnGrid<T>(x).to_double()) == bits_of(v), where);
    tally.check(OnGrid<T>(x).to_format().bits() == x.bits(), where);
    // Below 64 bits, v is the value itself.
    if constexpr (width<T>() < 64) tally.check(OnGrid<T>(v).to_format().bits() == x.bits(), where);
  }
  // Special and extreme doubles: zeros, infinities, NaN, the double
  // subnormals, and far outside the grid's range (saturation/overflow).
  const double specials[] = {0.0,
                             kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::nextafter(std::numeric_limits<double>::min(), 0.0),
                             0x1.8p-1060,
                             std::numeric_limits<double>::max(),
                             0x1p-1000,
                             0x1p+1000,
                             0x1p-300,
                             0x1p+300,
                             0x1.fffffp+254,
                             0x1.00001p-255};
  for (const double x : specials) check_round<T>(tally, x);
  // The first and last grid points and the gaps beyond them.
  const double minpos = value_of<T>(1);
  for (const double x : {minpos, minpos * 0.5, minpos * 0.75, minpos * 0x1p-20}) check_round<T>(tally, x);
  const double maxfin = [] {
    std::uint64_t b = kTop - 1;
    while (!std::isfinite(value_of<T>(b))) --b;
    return value_of<T>(b);
  }();
  for (const double x : {maxfin, maxfin * 1.25, maxfin * 2.0, maxfin * 0x1p+20}) {
    check_round<T>(tally, x);
    check_round<T>(tally, std::nextafter(x, kInf));
  }
  // IEEE overflow: the threshold halfway to the next power of two.
  if constexpr (!NumTraits<T>::tapered)
    check_between<T>(tally, maxfin, std::ldexp(1.0, std::ilogb(maxfin) + 1));
  // Doubles with random bits anywhere in the exponent range.
  SplitMix64 sm(0xd0b1e);
  for (int i = 0; i < 200000; ++i) check_round<T>(tally, std::bit_cast<double>(sm.next()));
}

// ---- Operations -----------------------------------------------------------------

enum class Op { add, sub, mul, div };
constexpr Op kOps[] = {Op::add, Op::sub, Op::mul, Op::div};

template <typename S>
S apply(Op op, S a, S b) {
  switch (op) {
    case Op::add: return a + b;
    case Op::sub: return a - b;
    case Op::mul: return a * b;
    case Op::div: return a / b;
  }
  return a;
}

/// Does the resident operation on encodings (a, b) give the engine's value?
template <typename T>
[[nodiscard]] bool same_op(Op op, std::uint64_t a, std::uint64_t b) {
  const T x = from_encoding<T>(a), y = from_encoding<T>(b);
  return matches(apply(op, OnGrid<T>(x), OnGrid<T>(y)), apply(op, x, y));
}

template <typename T>
[[nodiscard]] bool same_sqrt(std::uint64_t a) {
  const T x = from_encoding<T>(a);
  return matches(sqrt(OnGrid<T>(x)), sqrt(x));
}

[[nodiscard]] std::string op_detail(Op op, std::uint64_t a, std::uint64_t b) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "op %d on encodings 0x%llx, 0x%llx", static_cast<int>(op),
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
  return buf;
}

/// Zero, NaR/NaN, infinities, the ends of the range and the encodings at
/// and next to every binade boundary, with their negations.
template <typename T>
std::vector<std::uint64_t> boundary_operands() {
  constexpr std::uint64_t kMask = mask<T>();
  constexpr std::uint64_t kTop = std::uint64_t{1} << (width<T>() - 1);
  std::vector<std::uint64_t> ops = {0, 1, 2, kTop - 1, kTop - 2};
  for (int e = -300; e <= 300; ++e) {
    const std::uint64_t p = T::from_double(std::ldexp(1.0, e)).bits();
    for (const std::uint64_t q : {p - 1, p, p + 1}) ops.push_back(q & (kTop - 1));
  }
  if constexpr (!NumTraits<T>::tapered) {
    if constexpr (T::kFlavor == Flavor::ieee) ops.push_back(T::infinity().bits());
    ops.push_back(T::nan().bits());
    ops.push_back(T::max_finite().bits());
  }
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  const std::size_t positives = ops.size();
  for (std::size_t i = 0; i < positives; ++i) ops.push_back((ops[i] | kTop) & kMask);
  // Tapered negatives are two's complements; kTop itself is NaR.
  if constexpr (NumTraits<T>::tapered) {
    for (std::size_t i = positives; i < ops.size(); ++i) ops[i] = (~ops[i - positives] + 1) & kMask;
    ops.push_back(kTop);
  }
  return ops;
}

template <typename T>
void expect_operations_match_engine(int random_pairs) {
  Tally tally(NumTraits<T>::name() + " operations");
  const auto check = [&](std::uint64_t a, std::uint64_t b) {
    for (const Op op : kOps) tally.check(same_op<T>(op, a, b), [&] { return op_detail(op, a, b); });
  };
  const auto check_sqrt = [&](std::uint64_t a) {
    tally.check(same_sqrt<T>(a), [&] { return "sqrt of encoding " + std::to_string(a); });
  };
  // Boundary x boundary, on a stride where the square passes ~10^6 pairs
  // (the takum grids have ~3000 boundary encodings).
  const std::vector<std::uint64_t> edge = boundary_operands<T>();
  const std::size_t stride = 1 + edge.size() * edge.size() / 1000000;
  for (std::size_t i = 0; i < edge.size(); ++i) {
    check_sqrt(edge[i]);
    for (std::size_t j = i % stride; j < edge.size(); j += stride) check(edge[i], edge[j]);
  }
  constexpr std::uint64_t kMask = mask<T>();
  SplitMix64 sm(0x0f00d + width<T>());
  for (int i = 0; i < random_pairs; ++i) {
    const std::uint64_t a = sm.next() & kMask, b = sm.next() & kMask;
    check_sqrt(a);
    check(a, b);
  }
}

/// Products the double alone would round wrongly: A * B = 2^26 + 1
/// (mod 2^27) for 28-bit significands A and B (values in [1, 2), where the
/// 32-bit grids keep 27 fraction bits), so fl(a * b) drops a 1 in the
/// last place and lands exactly on a tie of the grid. Rounding that tie to
/// even goes down half the time although the product lies above it; only
/// the round-to-odd step gets these right.
template <typename T>
void expect_round_to_odd_products() {
  using Grid = typename detail::GridFor<T>::type;
  static_assert(!Grid::kShort);
  Tally tally(NumTraits<T>::name() + " round-to-odd products");
  constexpr std::uint64_t kLow27 = (std::uint64_t{1} << 27) - 1;
  SplitMix64 sm(0x0dd);
  int double_rounding_cases = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t a_sig = (std::uint64_t{1} << 27) | (sm.next() & kLow27) | 1;
    std::uint64_t inverse = a_sig;  // Newton: inverse of a_sig mod 2^64
    for (int k = 0; k < 6; ++k) inverse *= 2 - a_sig * inverse;
    const std::uint64_t b_sig = ((((std::uint64_t{1} << 26) + 1) * inverse) & kLow27) | (std::uint64_t{1} << 27);
    if (static_cast<u128>(a_sig) * b_sig >= static_cast<u128>(1) << 55) continue;  // product >= 2
    const double a = std::ldexp(static_cast<double>(a_sig), -27);
    const double b = std::ldexp(static_cast<double>(b_sig), -27);
    const double want = (T::from_double(a) * T::from_double(b)).to_double();
    double_rounding_cases += Grid::round(a * b) != want ? 1 : 0;
    for (const double sa : {a, -a}) {
      const double got = (OnGrid<T>(sa) * OnGrid<T>(b)).to_double();
      tally.check(bits_of(got) == bits_of(sa < 0 ? -want : want),
                  [&] { return hex(sa) + " * " + hex(b) + " = " + hex(got) + ", exact " + hex(want); });
    }
  }
  EXPECT_GT(double_rounding_cases, 100) << "the construction no longer produces grid ties";
}

TEST(OnGridRoundToOdd, Posit32ProductsOnGridTies) { expect_round_to_odd_products<Posit32>(); }

TEST(OnGridRoundToOdd, Takum32ProductsOnGridTies) { expect_round_to_odd_products<Takum32>(); }

/// Sums take no round-to-odd step: the static_assert in TaperedGrid shows
/// that no sum of two posit32 or takum32 values double-rounds. The same
/// check must reject a uniform grid of the same 28 bits, on which one does:
/// 1 + (2^-28 + 2^-54) lies above the tie 1 + 2^-28 between 1 and
/// 1 + 2^-27, but binary64 drops the 2^-54 and lands on the tie, which
/// rounds to even, down to 1.
TEST(OnGridSums32, TaperingRulesOutDoubleRounding) {
  static_assert(detail::sums_round_once(
      [](int e) { return detail::posit_raw_fraction_bits<32, 2>(e); }, 120));
  static_assert(detail::sums_round_once(
      [](int e) { return detail::takum_raw_fraction_bits<32>(e); }, 255));
  static_assert(!detail::sums_round_once([](int) { return 27; }, 120));
  volatile double b = 0x1p-28 + 0x1p-54;  // 27 significant bits
  EXPECT_EQ(1.0 + b, 1.0 + 0x1p-28);
}

// ---- Predicates -----------------------------------------------------------------

/// For the 8-bit formats every encoding (each NaN/NaR and -0 too), which
/// must also convert both ways bit for bit.
template <typename T>
void expect_predicates_match_engine() {
  std::vector<T> values;
  const auto add = [&](T x) {
    values.push_back(x);
    values.push_back(-x);
  };
  if constexpr (width<T>() == 8) {
    for (std::uint64_t b = 0; b < 256; ++b) values.push_back(from_encoding<T>(b));
  } else {
    add(T(0));
    add(T(1));
    add(T(0.3));
    add(T(-7.5));
    add(from_encoding<T>(1));
    add(from_encoding<T>((std::uint64_t{1} << (width<T>() - 1)) - 1));
    if constexpr (NumTraits<T>::tapered) {
      values.push_back(T::nar());
    } else {
      add(T::infinity());
      add(T::nan());
      add(T::max_finite());
    }
  }
  Tally tally(NumTraits<T>::name() + " predicates");
  for (const T x : values) {
    const OnGrid<T> gx(x);
    const auto at = [&](const char* what) {
      return [&, what] { return what + (" " + hex(x.to_double()) + " = " + std::to_string(x.bits())); };
    };
    if constexpr (width<T>() == 8) {
      tally.check(gx.to_format().bits() == x.bits(), at("round trip"));
      tally.check(bits_of(gx.to_double()) == bits_of(x.to_double()), at("to_double"));
    }
    tally.check(is_number(gx) == is_number(x), at("is_number"));
    tally.check(matches(abs(gx), abs(x)), at("abs"));
    tally.check(matches(-gx, -x), at("negate"));
    // The double-resident grids hold one NaN; the byte grid keeps T's bits.
    if constexpr (width<T>() > 8 && width<T>() < 64)
      tally.check((-gx).to_format().bits() == T::from_double((-x).to_double()).bits(), at("negate bits"));
    for (const T y : values) {
      const OnGrid<T> gy(y);
      const auto vs = [&](const char* what) {
        return [&, what] { return what + (" " + hex(x.to_double()) + " vs " + hex(y.to_double())); };
      };
      tally.check((gx == gy) == (x == y), vs("=="));
      tally.check((gx != gy) == (x != y), vs("!="));
      tally.check((gx < gy) == (x < y), vs("<"));
      tally.check((gx <= gy) == (x <= y), vs("<="));
      tally.check((gx > gy) == (x > y), vs(">"));
      tally.check((gx >= gy) == (x >= y), vs(">="));
    }
  }
}

// ---- The fraction-bits table ------------------------------------------------------

/// Fraction bits of binade e as the grid of T rounds by: read back from the
/// double-resident grids' quantum table, straight from the 64-bit ones'.
template <typename T>
[[nodiscard]] int table_fraction_bits(int e) {
  using Grid = typename detail::GridFor<T>::type;
  if constexpr (width<T>() == 64) {
    return Grid::fraction_bits(e);
  } else {
    if (e <= -1023 || e >= 1024) return 0;
    const double c = Grid::kRoundShift[static_cast<std::size_t>(e + 1023)];
    return c == 0.0 ? 0 : e + 52 - std::ilogb(c);
  }
}

/// Where the table gives binade e fb >= 1 fraction bits, the codec must
/// encode 2^e and 2^(e+1) exactly, 2^fb encodings apart, with the encoding
/// after 2^e one quantum 2^(e - fb) above it: then (the encoding being
/// monotone) the binade is 2^fb linearly spaced consecutive encodings, and
/// nearest-even on the significand is nearest-even on the encoding. Where
/// the table gives 0, the binade must have no fraction bits (outside the
/// takum end binades, which the table leaves to the exact engine by design).
template <typename T>
void expect_fraction_bits_match_codec() {
  const std::string name = NumTraits<T>::name();
  const bool takum = name.rfind("takum", 0) == 0;
  const auto exactly = [](int e, T x) {
    if (!is_number(x) || x.is_zero() || x.is_negative()) return false;
    const Unpacked u = x.unpack();
    return u.e == e && u.m == std::uint64_t{1} << 63;
  };
  int linear = 0;
  for (int e = -300; e <= 300; ++e) {
    const int fb = table_fraction_bits<T>(e);
    const T lo = T::from_double(std::ldexp(1.0, e));
    const T hi = T::from_double(std::ldexp(1.0, e + 1));
    const T next = T::from_bits(static_cast<typename T::Storage>(lo.bits() + 1));
    if (fb > 0) {
      ++linear;
      ASSERT_TRUE(exactly(e, lo) && exactly(e + 1, hi)) << name << " binade " << e;
      EXPECT_EQ(hi.bits() - lo.bits(), std::uint64_t{1} << fb) << name << " binade " << e;
      const Unpacked u = next.unpack();
      EXPECT_EQ(u.e, e) << name << " binade " << e;
      EXPECT_EQ(u.m - (std::uint64_t{1} << 63), std::uint64_t{1} << (63 - fb)) << name << " binade " << e;
    } else if (!(takum && (e == -255 || e == 254)) && exactly(e, lo)) {
      const bool fraction = is_number(next) && next.unpack().e == e;
      EXPECT_FALSE(fraction) << name << " binade " << e << " has fraction bits the table leaves out";
    }
  }
  EXPECT_GT(linear, 50) << name;
}

TEST(OnGridTable, FractionBitsMatchTheCodecsSpacing) {
  expect_fraction_bits_match_codec<Posit16>();
  expect_fraction_bits_match_codec<Posit32>();
  expect_fraction_bits_match_codec<Posit64>();
  expect_fraction_bits_match_codec<Takum16>();
  expect_fraction_bits_match_codec<Takum32>();
  expect_fraction_bits_match_codec<Takum64>();
}

// ---- 64-bit sums ------------------------------------------------------------------

/// The cases the one-word sum of the 64-bit grids argues about: every binade
/// (the fallback ones included) against every exponent gap 0..70 in both
/// signs and operand orders, operands at the bottom, middle and top of their
/// binade (the top ones carry into the next binade), and near-cancellation
/// of neighbouring encodings. Gap 0 pairs distinct operands of one binade,
/// so the selects see equal exponents with the smaller significand on
/// either side, and pairs each operand with itself: x - x and x + (-x)
/// cancel exactly.
template <typename T>
void expect_sums_64() {
  static_assert(width<T>() == 64);
  Tally tally(NumTraits<T>::name() + " sums");
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  SplitMix64 sm(0x5ca1e);
  // Positive encodings in binade e: its bottom, a random middle and its top.
  const auto binade = [&](int e) {
    const std::uint64_t lo = T::from_double(std::ldexp(1.0, e)).bits();
    const std::uint64_t hi = T::from_double(std::ldexp(1.0, e + 1)).bits();
    std::vector<std::uint64_t> out = {lo};
    if (hi > lo + 1) out.insert(out.end(), {lo + 1, hi - 1});
    if (hi > lo + 3) out.push_back(lo + 2 + sm.next() % (hi - lo - 3));
    return out;
  };
  int same_binade = 0, cancelling = 0;
  const auto check = [&](std::uint64_t a, std::uint64_t b) {
    if (a == b) {
      ++cancelling;
    } else if (from_encoding<T>(a).unpack().e == from_encoding<T>(b).unpack().e) {
      ++same_binade;
    }
    const auto neg = [](std::uint64_t x) { return (~x + 1); };
    for (const std::uint64_t x : {a, neg(a)}) {
      for (const std::uint64_t y : {b, neg(b)}) {
        for (const Op op : {Op::add, Op::sub}) {
          tally.check(same_op<T>(op, x, y) && same_op<T>(op, y, x), [&] { return op_detail(op, x, y); });
        }
      }
    }
  };
  int fallback = 0;
  const int min_exp = T::min_positive().unpack().e;
  for (int e = min_exp; e <= T::max_positive().unpack().e; ++e) {
    fallback += detail::GridFor<T>::type::fraction_bits(e) == 0 ? 1 : 0;
    for (const std::uint64_t a : binade(e)) {
      for (int gap = 0; gap <= 70 && e - gap >= min_exp; ++gap) {
        for (const std::uint64_t b : binade(e - gap)) check(a, b);
      }
      for (std::uint64_t k = 1; k <= 3; ++k) {
        if (a > k) check(a, a - k);
        if (a + k < kTop) check(a, a + k);
      }
    }
  }
  EXPECT_GE(fallback, 2) << "no fallback binades exercised";
  EXPECT_GT(same_binade, 1000) << "too few equal-exponent pairs";
  EXPECT_GT(cancelling, 400) << "too few exact cancellations";
}

TEST(OnGridSums64, Posit64GapsCarriesAndFallbackBinades) { expect_sums_64<Posit64>(); }

TEST(OnGridSums64, Takum64GapsCarriesAndFallbackBinades) { expect_sums_64<Takum64>(); }

// ---- 64-bit products --------------------------------------------------------------

/// How a 64-bit grid rounds the exact product A * B of two significands in
/// [2^63, 2^64) from binades ea and eb, worked out here in 128 bits.
struct ProductRounding {
  bool top127 = false;    // the product's top bit is 127 (else 126)
  int fr = 0;             // fraction bits of the result's binade; 0: exact engine
  bool tie = false;       // exactly half an ulp above a grid point
  bool above = false;     // above a tie by less than 2^64 of 2^128:
  bool below = false;     //   guard and sticky alone tell it from the tie
  bool guard_only = false;  // above a tie by the guard bit alone
  bool up = false;        // rounds away from zero
  bool carry = false;     // rounds up from an all-ones significand
};

template <typename T>
[[nodiscard]] ProductRounding classify_product(int ea, std::uint64_t a, int eb, std::uint64_t b) {
  using Grid = typename detail::GridFor<T>::type;
  const u128 p = static_cast<u128>(a) * b;
  ProductRounding r;
  r.top127 = (p >> 127) != 0;
  r.fr = Grid::fraction_bits(ea + eb + (r.top127 ? 1 : 0));
  if (r.fr <= 0) return r;
  const u128 m = r.top127 ? p : p << 1;  // top bit at 127
  const int low = 127 - r.fr;            // bits below the grid's last place
  const u128 rem = m & ((static_cast<u128>(1) << low) - 1);
  const u128 half = static_cast<u128>(1) << (low - 1);
  const u128 sticky_span = static_cast<u128>(1) << 64;
  r.tie = rem == half;
  r.above = rem > half && rem - half < sticky_span;
  r.below = rem < half && half - rem < sticky_span;
  r.guard_only = rem > half && rem - half == sticky_span >> 1;
  r.up = rem > half || (r.tie && ((m >> low) & 1) != 0);
  r.carry = r.up && (m >> low) == (static_cast<u128>(1) << (r.fr + 1)) - 1;
  return r;
}

/// The cases the product rounding of the 64-bit grids argues about,
/// against T's own *: random 120-bit products essentially never land on a
/// tie, so the sampled oracles do not reach them. For binade pairs whose
/// product lands in the dense binades, the tapered ones, the fallback ones
/// and beyond the range, operands are built so that the exact product lies
/// on a tie (rounding down and up), one unit of its last bit above or below
/// one, or the guard bit alone above one (only guard and sticky tell these
/// from the tie), with its top bit at 126 and at 127. An all-ones
/// significand times a power of two or times another all-ones one carries
/// into the next binade. Both signs, both orders, and zero and NaR
/// operands. A carry at top bit 127 needs a result binade with fewer
/// fraction bits than both operands' by 2 or more, which posit's regime
/// gives from 2^12 up and takum's logarithmic taper never does;
/// `carries_at_127` says whether the grid has one.
template <typename T>
void expect_products_64(bool carries_at_127) {
  static_assert(width<T>() == 64);
  using Grid = typename detail::GridFor<T>::type;
  constexpr int kDense = Grid::kSignificantBits - 1;
  Tally tally(NumTraits<T>::name() + " products");
  const auto check = [&](T a, T b) {
    for (const T x : {a, -a}) {
      for (const T y : {b, -b}) {
        tally.check(matches(OnGrid<T>(x) * OnGrid<T>(y), x * y) &&
                        matches(OnGrid<T>(y) * OnGrid<T>(x), y * x),
                    [&] { return op_detail(Op::mul, x.bits(), y.bits()); });
      }
    }
  };
  // The value with significand sig << (63 - fb) in binade e, which must be
  // on the grid.
  const auto value = [&](int e, int fb, u128 sig) {
    const auto m = static_cast<std::uint64_t>(sig << (63 - fb));
    const T x = T::from_exact(ExactResult{false, e, m, false, false});
    tally.check(x.unpack().e == e && x.unpack().m == m,
                [&] { return "operand not on the grid in binade " + std::to_string(e); });
    return x;
  };
  // Fraction bits of binade e's values: -1 where 2^e is not one, 0 where it
  // is the binade's only value the table vouches for.
  const auto operand_bits = [](int e) {
    const int fb = Grid::fraction_bits(e);
    if (fb > 0) return fb;
    const Unpacked u = T::from_exact(ExactResult{false, e, std::uint64_t{1} << 63, false, false}).unpack();
    return u.e == e && u.m == std::uint64_t{1} << 63 ? 0 : -1;
  };

  // Hits per case and top bit (126, 127).
  enum Case { kTieDown, kTieUp, kAbove, kBelow, kGuardOnly, kCarry, kDenseTie, kTaperedTie, kCases };
  int hits[kCases][2] = {};
  int fallback = 0;
  const auto run = [&](int ea, int fa, u128 a, int eb, int fb, u128 b) {
    check(value(ea, fa, a), value(eb, fb, b));
    const ProductRounding r = classify_product<T>(ea, static_cast<std::uint64_t>(a << (63 - fa)), eb,
                                                  static_cast<std::uint64_t>(b << (63 - fb)));
    const int t = r.top127 ? 1 : 0;
    fallback += r.fr <= 0 ? 1 : 0;
    hits[kTieDown][t] += r.tie && !r.up ? 1 : 0;
    hits[kTieUp][t] += r.tie && r.up ? 1 : 0;
    hits[kAbove][t] += r.above ? 1 : 0;
    hits[kBelow][t] += r.below ? 1 : 0;
    hits[kGuardOnly][t] += r.guard_only ? 1 : 0;
    hits[kCarry][t] += r.carry ? 1 : 0;
    hits[kDenseTie][t] += r.tie && r.fr == kDense ? 1 : 0;
    hits[kTaperedTie][t] += r.tie && r.fr > 0 && r.fr < kDense ? 1 : 0;
  };

  SplitMix64 sm(0x9e0d);
  const auto ones = [](int bits) { return (static_cast<u128>(1) << bits) - 1; };
  // Significands a (fa fraction bits, odd) and b (fb) whose product a * b,
  // read as the 128-bit product of the operands, lies `offset` units of its
  // last bit above half an ulp of binade ea + eb + t (kGuard: the guard bit
  // alone, 2^(fa + fb - 64 + t) in those units): the residue of a * b below
  // that ulp (w bits) is 2^(w-1) + offset, so b's low w bits are that
  // residue times the inverse of a mod 2^w. Builds nothing where the
  // product is on the grid anyway or b's forced bits leave its binade.
  constexpr int kGuard = 2;
  const auto near_tie = [&](int ea, int fa, int eb, int fb, int t, int offset) {
    const int fr = Grid::fraction_bits(ea + eb + t);
    const int w = fa + fb - fr + t;
    const int guard = fa + fb - 64 + t;
    if (fr <= 0 || w < 2 || (offset == kGuard && guard < 0)) return;
    const u128 above = offset == kGuard ? static_cast<u128>(1) << guard : static_cast<u128>(offset);
    const u128 a = (static_cast<u128>(1) << fa) | (sm.next() & ones(fa)) | 1;
    u128 inverse = a;  // Newton: each step doubles the correct low bits
    for (int k = 0; k < 7; ++k) inverse *= 2 - a * inverse;
    const u128 residue = ((static_cast<u128>(1) << (w - 1)) + above) * inverse & ones(w);
    u128 b = residue;
    if (w <= fb) {
      b |= ((static_cast<u128>(1) << fb) | (sm.next() & ones(fb))) & ~ones(w);
    } else if ((b >> fb) != 1) {
      return;
    }
    run(ea, fa, a, eb, fb, b);
  };

  const int emin = T::min_positive().unpack().e;
  const int emax = T::max_positive().unpack().e;
  for (int ea = emin; ea <= emax; ++ea) {
    const int fa = operand_bits(ea);
    if (fa < 0) continue;
    // Every 16th binade, and the ones whose products land near 1 (dense).
    std::vector<int> partners;
    for (int eb = emin + (ea & 15); eb <= emax; eb += 16) partners.push_back(eb);
    for (int d = -2; d <= 1; ++d) partners.push_back(d - ea);
    for (const int eb : partners) {
      const int fb = operand_bits(eb);
      if (fb < 0) continue;
      for (int t = 0; t <= 1; ++t) {
        for (const int offset : {0, 0, 1, -1, kGuard}) near_tie(ea, fa, eb, fb, t, offset);
      }
      // A power of two and an all-ones significand, and two all-ones ones.
      run(ea, fa, static_cast<u128>(1) << fa, eb, fb, ones(fb + 1));
      run(ea, fa, ones(fa + 1), eb, fb, ones(fb + 1));
      // Random operands: the exact engine's binades and saturation included.
      run(ea, fa, (static_cast<u128>(1) << fa) | (sm.next() & ones(fa)), eb, fb,
          (static_cast<u128>(1) << fb) | (sm.next() & ones(fb)));
    }
  }

  // Two ties near 1, where both grids keep 59 fraction bits.
  // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60 lies half an ulp above 1 + 2^-29,
  // whose last bit is even: down.
  const T near_one = value(0, 59, (static_cast<u128>(1) << 59) | (static_cast<u128>(1) << 29));
  EXPECT_EQ((OnGrid<T>(near_one) * OnGrid<T>(near_one)).to_double(), 1.0 + 0x1p-29);
  check(near_one, near_one);
  // 1.5 * (1 + 2^-59) = 1.5 + 2^-59 + 2^-60, half an ulp above an odd last
  // bit: up to 1.5 + 2^-58.
  const T three_halves = value(0, 1, 3);
  const T next_after_one = value(0, 59, (static_cast<u128>(1) << 59) | 1);
  const Unpacked up = (OnGrid<T>(three_halves) * OnGrid<T>(next_after_one)).to_format().unpack();
  EXPECT_EQ(up.e, 0);
  EXPECT_EQ(up.m, (std::uint64_t{3} << 62) + (std::uint64_t{1} << 5));
  check(three_halves, next_after_one);

  // Zero and NaR against each other and against numbers.
  for (const T special : {T(0), T::nar()}) {
    for (const T x : {T(0), T::nar(), T(1), T(-0.3), T::min_positive(), T::max_positive()}) check(special, x);
  }

  const char* names[kCases] = {"ties rounding down", "ties rounding up", "products just above a tie",
                               "products just below a tie", "products a guard bit above a tie",
                               "carries into the next binade", "ties in the dense binades",
                               "ties in the tapered binades"};
  for (int c = 0; c < kCases; ++c) {
    for (int t = 0; t <= 1; ++t) {
      if (c == kCarry && t == 1 && !carries_at_127) continue;
      EXPECT_GT(hits[c][t], 0) << NumTraits<T>::name() << ": no " << names[c] << " with top bit " << 126 + t;
    }
  }
  EXPECT_GT(fallback, 100) << NumTraits<T>::name() << ": too few products in the exact engine's binades";
}

TEST(OnGridProducts64, Posit64TiesCarriesAndFallbackBinades) { expect_products_64<Posit64>(true); }

TEST(OnGridProducts64, Takum64TiesCarriesAndFallbackBinades) { expect_products_64<Takum64>(false); }

// ---- The resident formats ---------------------------------------------------------

template <typename T>
class OnGridFormat : public ::testing::Test {};

using ResidentFormats = ::testing::Types<OFP8E4M3, OFP8E5M2, Posit8, Takum8, Float16, BFloat16,
                                         Posit16, Takum16, Posit32, Takum32, Posit64, Takum64>;

struct FormatName {
  template <typename T>
  static std::string GetName(int) {
    std::string s = NumTraits<T>::name();
    s.erase(std::remove_if(s.begin(), s.end(), [](char c) { return !std::isalnum(c); }), s.end());
    return s;
  }
};

TYPED_TEST_SUITE(OnGridFormat, ResidentFormats, FormatName);

TYPED_TEST(OnGridFormat, IsResidentWithTheFormatsTraits) {
  using T = TypeParam;
  using G = OnGrid<T>;
  static_assert(kGridResident<T>);
  static_assert(NumTraits<G>::bits == NumTraits<T>::bits);
  static_assert(NumTraits<G>::tapered == NumTraits<T>::tapered);
  EXPECT_EQ(NumTraits<G>::name(), NumTraits<T>::name());
  EXPECT_EQ(NumTraits<G>::epsilon(), NumTraits<T>::epsilon());
  EXPECT_EQ(NumTraits<G>::default_tolerance(), NumTraits<T>::default_tolerance());
  EXPECT_EQ(NumTraits<G>::to_double(G(0.1)), NumTraits<T>::to_double(T(0.1)));
}

TYPED_TEST(OnGridFormat, RoundingMatchesExactEngine) {
  expect_rounding_matches_engine<TypeParam>();
}

TYPED_TEST(OnGridFormat, OperationsMatchExactEngine) {
  expect_operations_match_engine<TypeParam>(1000000);
}

TYPED_TEST(OnGridFormat, PredicatesMatchExactEngine) {
  expect_predicates_match_engine<TypeParam>();
}

// ---- SpMV -------------------------------------------------------------------------

/// A CsrMatrix<T> behind an operator type of its own, so a resident solve
/// applies it in T (ResidentOp's foreign branch).
template <typename T>
struct ForeignCsr {
  const CsrMatrix<T>& a;
  [[nodiscard]] std::size_t rows() const noexcept { return a.rows(); }
  void matvec(const T* x, T* y) const { a.matvec(x, y); }
};

/// y = A x through both ResidentOp branches against kernels::spmv over T.
template <typename T>
void expect_spmv_matches_engine(const CsrMatrix<T>& a, const std::vector<T>& x,
                                const std::string& what) {
  const std::size_t n = a.rows();
  std::vector<T> want(n);
  kernels::spmv(n, a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                want.data());
  std::vector<OnGrid<T>> xg;
  for (const T v : x) xg.emplace_back(v);
  const PartialSchurOptions opts;
  const detail::ResidentOp<T, CsrMatrix<T>> resident(a, opts);
  const ForeignCsr<T> foreign_csr{a};
  const detail::ResidentOp<T, ForeignCsr<T>> foreign(foreign_csr, opts);
  for (const bool csr : {true, false}) {
    std::vector<OnGrid<T>> y(n);
    if (csr) {
      resident.matvec(xg.data(), y.data());
    } else {
      foreign.matvec(xg.data(), y.data());
    }
    Tally tally(NumTraits<T>::name() + " " + what + (csr ? " resident CSR" : " foreign operator"));
    for (std::size_t i = 0; i < n; ++i)
      tally.check(matches(y[i], want[i]), [&] {
        return "row " + std::to_string(i) + ": " + hex(y[i].to_double()) + ", exact engine " +
               hex(want[i].to_double());
      });
  }
}

/// The Laplacian of ArnoldiWorkspace's tests (n = 48) on random values and
/// on raw random encodings (NaN/NaR, infinities and -0 among them).
template <typename T>
void expect_laplacian_spmv() {
  Rng gr(0x60a1);
  const CsrMatrix<T> a =
      CsrMatrix<double>::from_coo(graph_laplacian_pipeline(erdos_renyi(48, 0.18, gr)))
          .template convert<T>();
  SplitMix64 sm(0x5b3f);
  Rng rng(0x5b3f);
  std::vector<T> values(a.cols()), encodings(a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    values[i] = T::from_double(rng.normal());
    encodings[i] = from_encoding<T>(sm.next() & mask<T>());
  }
  expect_spmv_matches_engine(a, values, "laplacian, random values");
  expect_spmv_matches_engine(a, encodings, "laplacian, random encodings");
}

/// Rows that reach the ends of T's range: empty rows (first, middle, last),
/// maxpos x maxpos, minpos x minpos, sums past maxpos, maxpos - maxpos
/// products, and -0 products (IEEE) or a NaR operand (tapered).
template <typename T>
void expect_edge_spmv() {
  constexpr std::uint64_t kTop = std::uint64_t{1} << (width<T>() - 1);
  std::uint64_t top = kTop - 1;
  while (!std::isfinite(value_of<T>(top))) --top;
  const T maxpos = from_encoding<T>(top), minpos = from_encoding<T>(1);
  const T one = T::from_double(1.0);
  // IEEE: -0; tapered: NaR (both the sign-bit-only encoding).
  const T special = from_encoding<T>(kTop);
  const std::vector<T> x = {maxpos,  minpos, one, -maxpos, special, -minpos, T::from_double(0.75),
                            T::from_double(-2.5), T::from_double(3.0)};
  struct Entry {
    std::uint32_t row, col;
    T value;
  };
  const std::vector<Entry> entries = {
      {1, 0, maxpos},                                                    // maxpos x maxpos
      {2, 1, minpos},  {2, 5, minpos},                                   // minpos x +-minpos
      {3, 0, one},     {3, 2, maxpos}, {3, 6, maxpos},                   // sum past maxpos
      {4, 2, special}, {4, 4, one},    {4, 5, minpos},                   // -0 / NaR products
      {6, 0, maxpos},  {6, 3, maxpos},                                   // maxpos^2 - maxpos^2
      {7, 0, minpos},  {7, 1, maxpos}, {7, 3, one},    {7, 6, -maxpos},  // mixed
      {7, 7, T::from_double(0.375)}, {7, 8, one}};
  CooMatrix coo(x.size(), x.size());  // rows 0, 5 and 8 stay empty
  for (const Entry& e : entries) coo.add(e.row, e.col, 1.0);
  CsrMatrix<T> a = CsrMatrix<double>::from_coo(coo).template convert<T>();
  ASSERT_EQ(a.nnz(), entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) a.mutable_values()[k] = entries[k].value;
  expect_spmv_matches_engine(a, x, "edge rows");
}

TYPED_TEST(OnGridFormat, SpmvMatchesExactEngine) {
  expect_laplacian_spmv<TypeParam>();
  expect_edge_spmv<TypeParam>();
}

// ---- Whole solves -----------------------------------------------------------------

/// Digest of everything a solve returns, values as T's doubles.
template <typename T>
Hash128 digest(const PartialSchurResult<T>& r) {
  Hasher h;
  h.u64(r.converged ? 1 : 0).u64(r.nconverged).u64(static_cast<std::uint64_t>(r.restarts));
  h.u64(r.matvecs);
  for (const char c : r.failure) h.u64(static_cast<unsigned char>(c));
  h.span(r.eig_re.data(), r.eig_re.size());
  h.span(r.eig_im.data(), r.eig_im.size());
  for (const DenseMatrix<T>* m : {&r.q, &r.r}) {
    h.u64(m->rows()).u64(m->cols());
    for (std::size_t j = 0; j < m->cols(); ++j)
      for (std::size_t i = 0; i < m->rows(); ++i) h.f64((*m)(i, j).to_double());
  }
  return h.finish();
}

/// 12 general-corpus matrices and one of each graph class.
const std::vector<TestMatrix>& identity_corpus() {
  static const std::vector<TestMatrix> corpus = [] {
    GeneralCorpusOptions go;
    go.count = 12;
    go.max_n = 72;
    std::vector<TestMatrix> c = build_general_corpus(go);
    GraphCorpusOptions gro;
    gro.counts = {1, 1, 1, 1};
    gro.max_n = 72;
    for (TestMatrix& m : build_graph_corpus(gro)) c.push_back(std::move(m));
    return c;
  }();
  return corpus;
}

template <typename T>
void expect_whole_solves_identical() {
  for (const TestMatrix& tm : identity_corpus()) {
    const CsrMatrix<T> a = tm.matrix.template convert<T>();
    for (const Which which : {Which::largest_magnitude, Which::smallest_real}) {
      PartialSchurOptions opts;
      opts.nev = 4;
      opts.mindim = 6;
      opts.maxdim = 12;
      opts.which = which;
      opts.tolerance = NumTraits<T>::default_tolerance();
      opts.max_restarts = 12;
      opts.seed = fnv1a(tm.name);
      for (const ReflectorStyle style : {ReflectorStyle::lapack, ReflectorStyle::textbook}) {
        opts.reflector_style = style;
        EXPECT_EQ(digest(partialschur<T>(a, opts)), digest(detail::partialschur_core<T>(a, opts)))
            << tm.name << " partialschur which=" << static_cast<int>(which)
            << " style=" << static_cast<int>(style);
      }
      EXPECT_EQ(digest(lanczos_eigs<T>(a, opts)), digest(detail::lanczos_core<T>(a, opts)))
          << tm.name << " lanczos which=" << static_cast<int>(which);
    }
  }
}

TYPED_TEST(OnGridFormat, WholeSolvesMatchTheSolverOverTheFormat) {
  expect_whole_solves_identical<TypeParam>();
}

// ---- CI oracles (DISABLED_ on tier-1) ---------------------------------------------

/// All (a, b) encoding pairs of + - * /, split over threads by the first
/// operand, and sqrt of every encoding.
template <typename T>
void expect_all_pairs(unsigned threads) {
  constexpr std::uint64_t kCount = std::uint64_t{1} << width<T>();
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first{~0ull};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t a = t; a < kCount; a += threads) {
        for (std::uint64_t b = 0; b < kCount; ++b) {
          for (const Op op : kOps) {
            if (!same_op<T>(op, a, b)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
              std::uint64_t none = ~0ull;
              first.compare_exchange_strong(none, (a << 32) | (b << 2) | static_cast<int>(op));
            }
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const std::uint64_t f = first.load();
  EXPECT_EQ(mismatches.load(), 0u) << NumTraits<T>::name() << ": first mismatch "
                                   << op_detail(static_cast<Op>(f & 3), f >> 32, (f >> 2) & 0x3fffffff);
  for (std::uint64_t a = 0; a < kCount; ++a)
    ASSERT_TRUE(same_sqrt<T>(a)) << NumTraits<T>::name() << " sqrt of 0x" << std::hex << a;
}

/// Boundary x random and random x random pairs, split over threads.
template <typename T>
void expect_sampled(std::uint64_t pairs, unsigned threads) {
  const std::vector<std::uint64_t> edge = boundary_operands<T>();
  constexpr std::uint64_t kMask = mask<T>();
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      SplitMix64 sm(0x32b17 + t);
      std::uint64_t bad = 0;
      for (std::uint64_t i = t; i < pairs; i += threads) {
        const std::uint64_t a = (i % 4 == 0) ? edge[i / 4 % edge.size()] : sm.next() & kMask;
        const std::uint64_t b = sm.next() & kMask;
        bad += same_sqrt<T>(b) ? 0 : 1;
        for (const Op op : kOps) bad += (same_op<T>(op, a, b) && same_op<T>(op, b, a)) ? 0 : 1;
      }
      mismatches.fetch_add(bad);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0u) << NumTraits<T>::name() << " over " << pairs << " pairs";
}

[[nodiscard]] unsigned oracle_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

// The 8-bit formats are small enough to check exhaustively on tier-1: all
// 2^16 pairs of + - * / and sqrt of every encoding. Their predicates run
// on every encoding and pair in OnGridFormat/*.PredicatesMatchExactEngine.
TEST(OnGridOracle, OnGrid8AllPairs) {
  expect_all_pairs<OFP8E4M3>(oracle_threads());
  expect_all_pairs<OFP8E5M2>(oracle_threads());
  expect_all_pairs<Posit8>(oracle_threads());
  expect_all_pairs<Takum8>(oracle_threads());
}

// All 2^32 operand pairs per operation of the four 16-bit formats: minutes
// of CPU, so disabled on tier-1 and run in CI with
// --gtest_also_run_disabled_tests.
TEST(OnGridOracle, DISABLED_OnGrid16AllPairs) {
  expect_all_pairs<Float16>(oracle_threads());
  expect_all_pairs<BFloat16>(oracle_threads());
  expect_all_pairs<Posit16>(oracle_threads());
  expect_all_pairs<Takum16>(oracle_threads());
}

// 10^8 pairs (a quarter with a boundary operand) per 32-bit format, both
// operand orders.
TEST(OnGridOracle, DISABLED_OnGrid32Sampled) {
  expect_sampled<Posit32>(100000000, oracle_threads());
  expect_sampled<Takum32>(100000000, oracle_threads());
}

// The same for the 64-bit formats.
TEST(OnGridOracle, DISABLED_OnGrid64Sampled) {
  expect_sampled<Posit64>(100000000, oracle_threads());
  expect_sampled<Takum64>(100000000, oracle_threads());
}

}  // namespace
}  // namespace mfla

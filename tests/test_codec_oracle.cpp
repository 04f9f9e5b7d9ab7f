// Oracle tests for the word-level tapered encoders and the SoftFloat double
// bridge. The oracle is the previous encoder: it assembled the "infinitely
// precise" payload string field by field into a 128-bit accumulator
// (BitBuilder) and rounded the extracted window. It is kept here verbatim
// and compared with PositCodec/TakumCodec::encode_positive over every
// in-range exponent, boundary and random significands and all guard/sticky
// combinations; then both are wrapped in TaperedFloat and compared on the
// four arithmetic operations (exhaustively for 8 bits, in a DISABLED_ test
// for 16 bits, sampled for 32/64 bits). SoftFloat::to_double is checked
// against the ldexp formula it replaced over every encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "arith/posit.hpp"
#include "arith/softfloat.hpp"
#include "arith/takum.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

// ---- The oracle: the BitBuilder encoders --------------------------------------

/// Assembles an "infinitely precise" encoding from the top down into a
/// 128-bit accumulator; bits pushed past the bottom turn into sticky.
class BitBuilder {
 public:
  void put(std::uint64_t bits, int width) noexcept {
    if (width <= 0) return;
    if (width < 64) bits &= (1ull << width) - 1;
    pos_ -= width;
    if (pos_ >= 0) {
      acc_ |= static_cast<u128>(bits) << pos_;
      return;
    }
    const int below = -pos_;
    if (below >= width) {
      sticky_ = sticky_ || bits != 0;
      return;
    }
    acc_ |= static_cast<u128>(bits) >> below;
    const std::uint64_t lost = bits & ((below >= 64) ? ~0ull : ((1ull << below) - 1));
    sticky_ = sticky_ || lost != 0;
  }

  struct Extracted {
    std::uint64_t payload;
    bool guard;
    bool rest;
  };

  /// Take the top `width` bits (width <= 63) as the payload; the next bit is
  /// the guard, everything below (plus overflow sticky) is `rest`.
  [[nodiscard]] Extracted extract(int width) const noexcept {
    Extracted r{};
    r.payload = static_cast<std::uint64_t>(acc_ >> (128 - width));
    r.guard = (acc_ >> (128 - width - 1)) & 1;
    r.rest = ((acc_ << (width + 1)) != 0) || sticky_;
    return r;
  }

 private:
  u128 acc_ = 0;
  int pos_ = 128;
  bool sticky_ = false;
};

template <typename Storage>
[[nodiscard]] Storage oracle_round_payload(int nbits, BitBuilder::Extracted x,
                                           bool extra_sticky) noexcept {
  const bool rest = x.rest || extra_sticky;
  std::uint64_t p = x.payload;
  if (x.guard && (rest || (p & 1))) ++p;
  const std::uint64_t top = 1ull << (nbits - 1);
  if (p >= top) p = top - 1;  // saturate below NaR
  if (p == 0) p = 1;          // never round a non-zero value to zero
  return static_cast<Storage>(p);
}

/// PositCodec with the BitBuilder encoder; decode is shared.
template <int N, int ES>
struct OraclePositCodec : PositCodec<N, ES> {
  using Storage = typename PositCodec<N, ES>::Storage;
  static constexpr int max_exponent = PositCodec<N, ES>::max_exponent;

  [[nodiscard]] static Storage encode_positive(int e, std::uint64_t m, bool guard,
                                               bool sticky) noexcept {
    constexpr std::uint64_t maxpos = (std::uint64_t{1} << (N - 1)) - 1;
    if (e >= max_exponent) return static_cast<Storage>(maxpos);
    if (e < -max_exponent) return Storage{1};
    const int k = e >> ES;  // arithmetic shift == floor division
    const auto ef = static_cast<std::uint64_t>(e - (k << ES));
    BitBuilder bb;
    if (k >= 0) {
      bb.put((2ull << (k + 1)) - 2, k + 2);  // (k+1) ones, then the 0 terminator
    } else {
      bb.put(1, -k + 1);  // (-k) zeros, then the 1 terminator
    }
    bb.put(ef, ES);
    bb.put(m & ((1ull << 63) - 1), 63);
    bb.put(guard ? 1 : 0, 1);
    return oracle_round_payload<Storage>(N, bb.extract(N - 1), sticky);
  }
};

/// TakumCodec with the BitBuilder encoder; decode is shared.
template <int N>
struct OracleTakumCodec : TakumCodec<N> {
  using Storage = typename TakumCodec<N>::Storage;
  static constexpr int max_exponent = TakumCodec<N>::max_exponent;

  [[nodiscard]] static Storage encode_positive(int e, std::uint64_t m, bool guard,
                                               bool sticky) noexcept {
    constexpr std::uint64_t maxpos = (std::uint64_t{1} << (N - 1)) - 1;
    if (e >= max_exponent) return static_cast<Storage>(maxpos);
    if (e < -max_exponent) return Storage{1};
    int d, rho, cbits;
    std::uint64_t c_field;
    if (e >= 0) {
      d = 1;
      rho = detail::bitlen(static_cast<unsigned>(e) + 1) - 1;
      cbits = rho;
      c_field = static_cast<std::uint64_t>(e - ((1 << rho) - 1));
    } else {
      d = 0;
      const int t = -e;
      const int fl = detail::bitlen(static_cast<unsigned>(t)) - 1;
      rho = 7 - fl;
      cbits = 7 - rho;
      c_field = static_cast<std::uint64_t>(e + (1 << (8 - rho)) - 1);
    }
    BitBuilder bb;
    bb.put(static_cast<std::uint64_t>(d), 1);
    bb.put(static_cast<std::uint64_t>(rho), 3);
    bb.put(c_field, cbits);
    bb.put(m & ((1ull << 63) - 1), 63);
    bb.put(guard ? 1 : 0, 1);
    return oracle_round_payload<Storage>(N, bb.extract(N - 1), sticky);
  }
};

// ---- Encode: word-level vs BitBuilder -----------------------------------------

/// Significands with the implicit bit set: MSB only, all ones, low runs of
/// ones, top runs of ones, single set bits, then `randoms` random ones.
std::vector<std::uint64_t> significand_patterns(int randoms) {
  constexpr std::uint64_t msb = 1ull << 63;
  std::vector<std::uint64_t> ms = {msb, ~0ull};
  for (int r = 1; r < 63; ++r) {
    ms.push_back(msb | ((1ull << r) - 1));  // low run
    ms.push_back(~0ull << r);               // top run
    ms.push_back(msb | (1ull << (r - 1)));  // single bit
  }
  SplitMix64 sm(0xc0dec0deull);
  for (int i = 0; i < randoms; ++i) ms.push_back(sm.next() | msb);
  return ms;
}

template <class Codec, class Oracle>
void expect_encode_matches_oracle() {
  constexpr int kMax = Codec::max_exponent;
  const std::vector<std::uint64_t> ms = significand_patterns(256);
  std::uint64_t checks = 0, mismatches = 0;
  for (int e = -kMax - 3; e <= kMax + 3; ++e) {
    for (const std::uint64_t m : ms) {
      for (int gs = 0; gs < 4; ++gs) {
        const bool guard = gs & 1, sticky = gs & 2;
        const auto got = Codec::encode_positive(e, m, guard, sticky);
        const auto want = Oracle::encode_positive(e, m, guard, sticky);
        ++checks;
        if (got != want && ++mismatches <= 5) {
          ADD_FAILURE() << Codec::name() << " encode(e=" << e << ", m=0x" << std::hex << m
                        << ", g=" << guard << ", s=" << sticky << ") = 0x"
                        << static_cast<std::uint64_t>(got) << ", oracle 0x"
                        << static_cast<std::uint64_t>(want) << std::dec;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checks << " encodes";
}

TEST(CodecOracleEncode, PositStandardWidths) {
  expect_encode_matches_oracle<PositCodec<8, 2>, OraclePositCodec<8, 2>>();
  expect_encode_matches_oracle<PositCodec<16, 2>, OraclePositCodec<16, 2>>();
  expect_encode_matches_oracle<PositCodec<32, 2>, OraclePositCodec<32, 2>>();
  expect_encode_matches_oracle<PositCodec<64, 2>, OraclePositCodec<64, 2>>();
}

TEST(CodecOracleEncode, PositExponentSizeAblation) {
  expect_encode_matches_oracle<PositCodec<16, 0>, OraclePositCodec<16, 0>>();
  expect_encode_matches_oracle<PositCodec<16, 1>, OraclePositCodec<16, 1>>();
  expect_encode_matches_oracle<PositCodec<16, 3>, OraclePositCodec<16, 3>>();
  expect_encode_matches_oracle<PositCodec<32, 0>, OraclePositCodec<32, 0>>();
  expect_encode_matches_oracle<PositCodec<32, 1>, OraclePositCodec<32, 1>>();
  expect_encode_matches_oracle<PositCodec<32, 3>, OraclePositCodec<32, 3>>();
}

TEST(CodecOracleEncode, TakumWidths) {
  expect_encode_matches_oracle<TakumCodec<8>, OracleTakumCodec<8>>();
  expect_encode_matches_oracle<TakumCodec<16>, OracleTakumCodec<16>>();
  expect_encode_matches_oracle<TakumCodec<32>, OracleTakumCodec<32>>();
  expect_encode_matches_oracle<TakumCodec<64>, OracleTakumCodec<64>>();
}

// ---- Arithmetic: TaperedFloat over both encoders ------------------------------

enum class Op { add, sub, mul, div };
constexpr Op kOps[] = {Op::add, Op::sub, Op::mul, Op::div};

template <class T>
T apply(Op op, T a, T b) {
  switch (op) {
    case Op::add: return a + b;
    case Op::sub: return a - b;
    case Op::mul: return a * b;
    case Op::div: return a / b;
  }
  return T::nar();
}

/// Bits of `op` on encodings (a, b) in the codec under test and in the
/// oracle; true when they agree.
template <class Codec, class Oracle>
bool same_result(Op op, std::uint64_t a, std::uint64_t b) {
  using T = TaperedFloat<Codec>;
  using O = TaperedFloat<Oracle>;
  using S = typename Codec::Storage;
  const T got = apply(op, T::from_bits(static_cast<S>(a)), T::from_bits(static_cast<S>(b)));
  const O want = apply(op, O::from_bits(static_cast<S>(a)), O::from_bits(static_cast<S>(b)));
  return got.bits() == want.bits();
}

/// All (a, b) encoding pairs, split over threads by the first operand.
template <class Codec, class Oracle>
void expect_arithmetic_exhaustive(unsigned threads) {
  constexpr std::uint64_t kCount = std::uint64_t{1} << Codec::nbits;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first{~0ull};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t a = t; a < kCount; a += threads) {
        for (std::uint64_t b = 0; b < kCount; ++b) {
          for (const Op op : kOps) {
            if (!same_result<Codec, Oracle>(op, a, b)) {
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
  EXPECT_EQ(mismatches.load(), 0u) << Codec::name() << ": first mismatch a=0x" << std::hex
                                   << (f >> 32) << " b=0x" << ((f >> 2) & 0x3fffffff)
                                   << " op=" << std::dec << (f & 3);
}

template <class Codec, class Oracle>
void expect_sqrt_exhaustive() {
  using T = TaperedFloat<Codec>;
  using O = TaperedFloat<Oracle>;
  using S = typename Codec::Storage;
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << Codec::nbits); ++a) {
    const S bits = static_cast<S>(a);
    ASSERT_EQ(sqrt(T::from_bits(bits)).bits(), sqrt(O::from_bits(bits)).bits())
        << Codec::name() << " sqrt(0x" << std::hex << a << ")";
  }
}

TEST(CodecOracleArithmetic, Posit8AllPairs) {
  expect_arithmetic_exhaustive<PositCodec<8, 2>, OraclePositCodec<8, 2>>(1);
  expect_sqrt_exhaustive<PositCodec<8, 2>, OraclePositCodec<8, 2>>();
}

TEST(CodecOracleArithmetic, Takum8AllPairs) {
  expect_arithmetic_exhaustive<TakumCodec<8>, OracleTakumCodec<8>>(1);
  expect_sqrt_exhaustive<TakumCodec<8>, OracleTakumCodec<8>>();
}

// All 2^32 operand pairs per operation: minutes of CPU per format, so it is
// disabled on tier-1 and run in CI with --gtest_also_run_disabled_tests.
TEST(CodecOracleArithmetic, DISABLED_Posit16Takum16AllPairs) {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  expect_sqrt_exhaustive<PositCodec<16, 2>, OraclePositCodec<16, 2>>();
  expect_sqrt_exhaustive<TakumCodec<16>, OracleTakumCodec<16>>();
  expect_arithmetic_exhaustive<PositCodec<16, 2>, OraclePositCodec<16, 2>>(threads);
  expect_arithmetic_exhaustive<TakumCodec<16>, OracleTakumCodec<16>>(threads);
}

/// Encodings at every exponent's regime/characteristic boundary: the
/// pattern of 2^e and its two neighbours, for every in-range e, plus
/// minpos/maxpos and all their negations.
template <class Codec>
std::vector<std::uint64_t> boundary_operands() {
  using T = TaperedFloat<Codec>;
  constexpr std::uint64_t kMask = T::kMask;
  std::vector<std::uint64_t> ops = {1, T::kNaRBits - 1ull};
  for (int e = -Codec::max_exponent; e < Codec::max_exponent; ++e) {
    const std::uint64_t p = Codec::encode_positive(e, 1ull << 63, false, false);
    ops.push_back(p);
    if (p > 1) ops.push_back(p - 1);
    if (p + 1 < T::kNaRBits) ops.push_back(p + 1);
  }
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  const std::size_t positives = ops.size();
  for (std::size_t i = 0; i < positives; ++i) ops.push_back((~ops[i] + 1) & kMask);
  return ops;
}

/// Boundary operands against each other and against random encodings, and
/// random pairs.
template <class Codec, class Oracle>
void expect_arithmetic_sampled(int random_pairs) {
  using T = TaperedFloat<Codec>;
  const std::vector<std::uint64_t> edge = boundary_operands<Codec>();
  SplitMix64 sm(0x5eed0000ull + Codec::nbits);
  const auto random_bits = [&] { return sm.next() & T::kMask; };
  std::uint64_t checks = 0, mismatches = 0;
  const auto check = [&](std::uint64_t a, std::uint64_t b) {
    for (const Op op : kOps) {
      ++checks;
      if (!same_result<Codec, Oracle>(op, a, b) && ++mismatches <= 5) {
        ADD_FAILURE() << Codec::name() << " op " << static_cast<int>(op) << " on 0x" << std::hex
                      << a << ", 0x" << b << std::dec;
      }
    }
  };
  // Edge x edge on a stride (the full square is ~10^7 pairs at 64 bits).
  for (std::size_t i = 0; i < edge.size(); ++i)
    for (std::size_t j = i % 7; j < edge.size(); j += 7) check(edge[i], edge[j]);
  for (const std::uint64_t a : edge) {
    for (int r = 0; r < 16; ++r) {
      const std::uint64_t b = random_bits();
      check(a, b);
      check(b, a);
    }
  }
  for (int r = 0; r < random_pairs; ++r) check(random_bits(), random_bits());
  EXPECT_EQ(mismatches, 0u) << "of " << checks << " operations";
}

TEST(CodecOracleArithmetic, Posit32Posit64Sampled) {
  expect_arithmetic_sampled<PositCodec<32, 2>, OraclePositCodec<32, 2>>(200000);
  expect_arithmetic_sampled<PositCodec<64, 2>, OraclePositCodec<64, 2>>(200000);
}

TEST(CodecOracleArithmetic, Takum32Takum64Sampled) {
  expect_arithmetic_sampled<TakumCodec<32>, OracleTakumCodec<32>>(200000);
  expect_arithmetic_sampled<TakumCodec<64>, OracleTakumCodec<64>>(200000);
}

// ---- SoftFloat::to_double vs the ldexp formula --------------------------------

/// The conversion SoftFloat::to_double used before it assembled the
/// double's bits directly.
template <class F>
double ldexp_to_double(F x) {
  constexpr int M = F::kManBits;
  const auto bits = static_cast<std::uint64_t>(x.bits());
  const auto be = static_cast<int>((bits >> M) & ((1u << F::kExpBits) - 1));
  const auto mf = bits & ((1ull << M) - 1);
  const double mag = (be == 0) ? std::ldexp(static_cast<double>(mf), F::kEmin - M)
                               : std::ldexp(static_cast<double>((1ull << M) | mf),
                                            be + F::kEmin - 1 - M);
  return x.signbit() ? -mag : mag;
}

template <class F>
void expect_to_double_exhaustive() {
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << F::kBits); ++a) {
    const F x = F::from_bits(static_cast<typename F::Storage>(a));
    const double got = x.to_double();
    if (x.is_nan()) {
      EXPECT_TRUE(std::isnan(got)) << "0x" << std::hex << a;
      continue;
    }
    const double want = x.is_inf() ? (x.signbit() ? -INFINITY : INFINITY) : ldexp_to_double(x);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "0x" << std::hex << a << ": " << got << " vs " << want;
  }
}

TEST(SoftFloatToDoubleOracle, AllEncodings) {
  expect_to_double_exhaustive<OFP8E4M3>();
  expect_to_double_exhaustive<OFP8E5M2>();
  expect_to_double_exhaustive<Float16>();
  expect_to_double_exhaustive<BFloat16>();
}

}  // namespace
}  // namespace mfla

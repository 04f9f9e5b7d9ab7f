// Posit arithmetic (Posit Standard 2022 layout, configurable exponent size).
//
// An n-bit posit<n, es> encodes, after the sign bit, a unary regime run
// (k >= 0: k+1 ones + terminating zero; k < 0: -k zeros + terminating one),
// an es-bit exponent field and the remaining fraction bits:
//
//   value = (1 + f) * 2^(k * 2^es + e_field)
//
// The Posit Standard (2022) fixes es = 2 for every width; es is kept as a
// template parameter for the es-ablation study (bench_ablation_posit_es).
//
// Rounding/saturation semantics follow the standard (and SoftPosit):
// round-to-nearest-even on the encoding integer; overflow clamps to maxpos
// (never NaR), underflow clamps to minpos (never zero).
#pragma once

#include <cstdint>
#include <string>

#include "arith/tapered.hpp"

namespace mfla {

template <int N, int ES = 2>
struct PositCodec {
  static_assert(N >= 4 && N <= 64);
  static_assert(ES >= 0 && ES <= 4);

  static constexpr int nbits = N;
  static constexpr int es = ES;
  using Storage = detail::uint_for_bits<N>;

  /// Largest representable exponent: maxpos = 2^((N-2) * 2^ES).
  static constexpr int max_exponent = (N - 2) << ES;

  [[nodiscard]] static const char* name() noexcept {
    static const std::string s = [] {
      std::string r = "posit" + std::to_string(N);
      if (ES != 2) r += "_es" + std::to_string(ES);
      return r;
    }();
    return s.c_str();
  }

  [[nodiscard]] static Unpacked decode_positive(std::uint64_t p) noexcept {
    const std::uint64_t x = p << (64 - N);
    const std::uint64_t y = x << 1;  // regime field starts at bit 63
    constexpr int w = N - 1;         // payload width after the sign bit
    const bool r0 = (y >> 63) & 1;
    std::uint64_t z = r0 ? ~y : y;
    z |= 1ull << (63 - w);  // stop the run count at the end of the payload
    const int run = clz_u64(z);
    const int k = r0 ? run - 1 : -run;
    const int consumed = (run < w) ? run + 1 : run;  // terminator if present
    const int pos = 1 + consumed;
    const std::uint64_t rest = (pos < 64) ? x << pos : 0;
    const int avail = N - pos;
    const int taken = (ES < avail) ? ES : (avail > 0 ? avail : 0);
    std::uint64_t ef = (taken > 0) ? rest >> (64 - taken) : 0;
    ef <<= (ES - taken);
    const std::uint64_t rest2 = (taken < 64) ? rest << taken : 0;
    Unpacked u;
    u.e = (k << ES) + static_cast<int>(ef);
    u.m = (1ull << 63) | (rest2 >> 1);
    return u;
  }

  [[nodiscard]] static Storage encode_positive(int e, std::uint64_t m, bool guard,
                                               bool sticky) noexcept {
    constexpr std::uint64_t maxpos = (std::uint64_t{1} << (N - 1)) - 1;
    if (e >= max_exponent) return static_cast<Storage>(maxpos);
    if (e < -max_exponent) return Storage{1};
    const int k = e >> ES;  // arithmetic shift == floor division
    const auto ef = static_cast<std::uint64_t>(e - (k << ES));
    // Regime run plus terminator, left-aligned: (k+1) ones then a 0, or
    // (-k) zeros then a 1. The range checks above bound it to N-1 bits.
    const std::uint64_t regime = (k >= 0) ? ~0ull << (63 - k) : 1ull << (63 + k);
    const int len = (k >= 0) ? k + 2 : 1 - k;
    // Exponent field then the 63 fraction bits; the ES fraction bits that
    // fall off the word lie past bit 64 of the payload string, so they (like
    // the guard) are sticky.
    std::uint64_t body = m << 1;
    bool lost = guard || sticky;
    if constexpr (ES > 0) {
      lost = lost || (body << (64 - ES)) != 0;
      body = (ef << (64 - ES)) | (body >> ES);
    }
    return detail::round_word<N, Storage>(regime, len, body, lost);
  }
};

template <int N, int ES = 2>
using Posit = TaperedFloat<PositCodec<N, ES>>;

using Posit8 = Posit<8>;
using Posit16 = Posit<16>;
using Posit32 = Posit<32>;
using Posit64 = Posit<64>;

}  // namespace mfla

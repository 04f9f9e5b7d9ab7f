// Takum arithmetic (linear takums, Hunhold 2024).
//
// An n-bit takum encodes, after the sign bit S:
//   D      — 1-bit direction (sign of the characteristic),
//   R      — 3-bit regime rho,
//   C      — characteristic field of rho bits (D=1) or 7-rho bits (D=0),
//   M      — the remaining mantissa bits,
// with the characteristic
//   c = 2^rho - 1 + C          for D = 1   (c in [0, 254])
//   c = -2^(8-rho) + 1 + C     for D = 0   (c in [-255, -1])
// and value = (1 + f) * 2^c for positive encodings; negative values are the
// two's complement of the positive pattern. The characteristic and mantissa
// fields are truncated by the total width (missing bits read as zero), so
// even takum8 spans roughly 2^±239.
//
// Rounding is defined on the encoding (round-to-nearest-even of the integer
// pattern) with saturation at the extremes, exactly like posits.
#pragma once

#include <cstdint>
#include <string>

#include "arith/tapered.hpp"

namespace mfla {

template <int N>
struct TakumCodec {
  static_assert(N >= 8 && N <= 64, "takum widths below 8 bits are not defined");

  static constexpr int nbits = N;
  using Storage = detail::uint_for_bits<N>;

  static constexpr int max_exponent = 255;  // |c| <= 255 by construction

  [[nodiscard]] static const char* name() noexcept {
    static const std::string s = "takum" + std::to_string(N);
    return s.c_str();
  }

  [[nodiscard]] static Unpacked decode_positive(std::uint64_t p) noexcept {
    const std::uint64_t x = p << (64 - N);
    const int d = static_cast<int>((x >> 62) & 1);
    const int rho = static_cast<int>((x >> 59) & 7);
    const int cbits = d ? rho : 7 - rho;
    const int avail = N - 5;
    const int ctaken = (cbits < avail) ? cbits : avail;
    const std::uint64_t rest = x << 5;
    const std::uint64_t c_explicit = (ctaken > 0) ? rest >> (64 - ctaken) : 0;
    const auto c_field = static_cast<int>(c_explicit << (cbits - ctaken));
    const int c = d ? ((1 << rho) - 1 + c_field) : (-(1 << (8 - rho)) + 1 + c_field);
    const std::uint64_t rest2 = (ctaken < 64) ? rest << ctaken : 0;
    Unpacked u;
    u.e = c;
    u.m = (1ull << 63) | (rest2 >> 1);
    return u;
  }

  [[nodiscard]] static Storage encode_positive(int e, std::uint64_t m, bool guard,
                                               bool sticky) noexcept {
    constexpr std::uint64_t maxpos = (std::uint64_t{1} << (N - 1)) - 1;
    // The characteristic is limited to [-255, 254]; saturate outside it.
    // (Width-induced truncation saturates via round_payload's clamps.)
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
    // D|R|C prefix (at most 11 bits), left-aligned, then the 63 fraction
    // bits. The guard lies past bit 64 of the payload string: sticky.
    const std::uint64_t prefix = (static_cast<std::uint64_t>(d) << 63) |
                                 (static_cast<std::uint64_t>(rho) << 60) |
                                 (c_field << (60 - cbits));
    return detail::round_word<N, Storage>(prefix, 4 + cbits, m << 1, guard || sticky);
  }
};

template <int N>
using Takum = TaperedFloat<TakumCodec<N>>;

using Takum8 = Takum<8>;
using Takum16 = Takum<16>;
using Takum32 = Takum<32>;
using Takum64 = Takum<64>;

}  // namespace mfla

// Whole-operation tables of the 8-bit formats (OFP8 E4M3/E5M2, posit8,
// takum8).
//
// With 256 encodings the whole operation space is small enough to hold:
// the result encoding of +, * and / for every operand pair (256 x 256
// bytes each), the result of sqrt for every encoding, and every encoding's
// double. Each entry is the binary64 operation on the two decoded values,
// rounded once by T::from_double:
//
//  * OFP8 (SoftFloat): that is how SoftFloat defines its operations, so
//    the entry is T's result by construction.
//  * posit8, takum8: the values carry at most 4 significant bits, so a
//    product is exact in binary64, and so is a sum unless the exponents
//    differ by more than ~49, when the smaller operand lies far below half
//    a quantum of the larger and both round to the larger. A quotient or
//    root that is not exact lies far (relative to 2^-53) from every grid
//    point and tie of the 9-bit rounding. One rounding of the double then
//    equals the exact engine's one rounding of the exact value.
//
// Binary64 + and * are commutative (from_double maps every NaN to T's one
// NaN), so each of their pairs is computed once and the tables are
// symmetric: the + table is its own transpose (tests/test_kernel_accel.cpp
// checks that). OnGridOracle.OnGrid8AllPairs (tests/test_on_grid.cpp)
// checks every entry, through the grid, against the exact engine.
//
// Their one reader is the 8-bit resident grid (arith/on_grid.hpp), which
// runs every operation of a solve on the encoding byte, SpMV included.
//
// The tables sit in zero-filled static storage, so a format's pages cost
// memory only once they are written. The first Lut8<T>::instance() (a
// thread-safe function-local static) fills them; no static initializer
// builds them before main. The grid then indexes the arrays directly,
// with no guard and no call, which is only valid after instance() has
// returned in the reading thread (or in one it synchronized with). The
// resident grid's constructors call it, so every value it holds implies
// built tables.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "arith/traits.hpp"

namespace mfla {

namespace detail {

/// The tables of one 8-bit format. Binary operations are indexed
/// (a << 8) | b; add and mul are symmetric.
struct Lut8Data {
  std::array<std::uint8_t, 65536> add;
  std::array<std::uint8_t, 65536> mul;
  std::array<std::uint8_t, 65536> div;
  std::array<std::uint8_t, 256> sqrt;
  std::array<double, 256> dec;
};

/// Zero until Lut8<T>::instance() fills it.
template <typename T>
inline constinit Lut8Data lut8_data{};

/// (a << 8) | b, written as a sum so the compiler can fold a
/// loop-invariant row (a << 8) into the base address.
[[nodiscard]] constexpr std::size_t lut8_index(std::uint8_t a, std::uint8_t b) noexcept {
  return (static_cast<std::size_t>(a) << 8) + b;
}

}  // namespace detail

/// The builder of an 8-bit format T's tables (detail::lut8_data<T>), run
/// on first use.
template <typename T>
class Lut8 {
 public:
  using Storage = typename T::Storage;
  static_assert(T::kBits == 8 && sizeof(Storage) == 1);

  /// Builds the tables on the first call.
  [[nodiscard]] static const Lut8& instance() noexcept {
    static const Lut8 lut;
    return lut;
  }

 private:
  Lut8() noexcept {
    detail::Lut8Data& t = d();
    for (unsigned a = 0; a < 256; ++a) t.dec[a] = T::from_bits(static_cast<Storage>(a)).to_double();
    for (unsigned a = 0; a < 256; ++a) {
      const double x = t.dec[a];
      t.sqrt[a] = T::from_double(std::sqrt(x)).bits();
      for (unsigned b = 0; b < 256; ++b) {
        const double y = t.dec[b];
        const std::size_t i = (a << 8) | b, mirror = (b << 8) | a;
        t.div[i] = T::from_double(x / y).bits();
        if (b < a) continue;
        t.add[i] = t.add[mirror] = T::from_double(x + y).bits();
        t.mul[i] = t.mul[mirror] = T::from_double(x * y).bits();
      }
    }
  }

  [[nodiscard]] static detail::Lut8Data& d() noexcept { return detail::lut8_data<T>; }
};

}  // namespace mfla

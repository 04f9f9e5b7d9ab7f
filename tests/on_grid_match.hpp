// The comparison every resident-arithmetic test makes: does a value held
// on T's grid equal the exact engine's result in T?
#pragma once

#include <bit>
#include <cstdint>

#include "arith/on_grid.hpp"

namespace mfla {

/// The 8-bit grids hold the encoding; the double-resident grids compare
/// the double they hold; the 64-bit grids the encoding and, so the fields
/// are canonical, the value decoded from the engine's result.
template <typename T>
[[nodiscard]] bool matches(OnGrid<T> got, T want) {
  if constexpr (T::kBits == 8) {
    return got.to_format().bits() == want.bits();
  } else if constexpr (T::kBits == 64) {
    return got.to_format().bits() == want.bits() && got == OnGrid<T>(want);
  } else {
    return std::bit_cast<std::uint64_t>(got.to_double()) ==
           std::bit_cast<std::uint64_t>(want.to_double());
  }
}

/// Two values on one grid are the same value, by the same comparison.
template <typename T>
[[nodiscard]] bool matches(OnGrid<T> got, OnGrid<T> want) {
  if constexpr (T::kBits == 8 || T::kBits == 64) {
    return matches(got, want.to_format());
  } else {
    return std::bit_cast<std::uint64_t>(got.to_double()) ==
           std::bit_cast<std::uint64_t>(want.to_double());
  }
}

}  // namespace mfla

// Lookup-table acceleration for the ≤16-bit formats.
//
// Every inner-loop scalar operation of the study's kernels normally pays
// full software emulation: SoftFloat round-trips through double (bit
// assembly on both sides) and TaperedFloat runs a 128-bit exact-significand
// engine per element. For narrow formats the whole operation space is small enough to
// precompute, so this header provides three acceleration tiers, selected
// per scalar type at compile time:
//
//  * 8-bit formats (OFP8 E4M3/E5M2, posit8, takum8) — full two-operand
//    add/mul result tables (256×256 = 64 KiB each) plus a 256-entry double
//    decode table. One table load replaces a complete emulated operation.
//  * 16-bit IEEE-style formats (float16, bfloat16) — a 65536-entry double
//    decode table turns to_double into a single load; the encode side is
//    the exact, correctly rounded SoftFloat::from_double.
//  * 16-bit tapered formats (posit16, takum16) — a 65536-entry Unpacked
//    table replaces the decode bit-twiddling; the arithmetic core and the
//    encoding-level rounding are TaperedFloat::add_unpacked/mul_unpacked,
//    i.e. the exact engine itself.
//
// Every table entry is produced by the exact engine, so the fast paths are
// bit-identical by construction; tests/test_kernel_accel.cpp verifies this
// exhaustively for the 8-bit formats and by decode-exhaustion plus operand
// sampling for the 16-bit ones.
//
// Tables are built lazily on first use through a magic static (thread-safe
// since C++11) and shared by every thread of the experiment engine's pool.
// Building MFLA_ENABLE_LUT=0 (CMake option of the same name) compiles all
// fast paths out, leaving only the exact reference engines;
// set_lut_enabled(false) disables them at runtime in an enabled build
// (used by the bit-identity tests and the exact-vs-LUT benchmark).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arith/traits.hpp"

#ifndef MFLA_ENABLE_LUT
#define MFLA_ENABLE_LUT 1
#endif

namespace mfla {
namespace kernels {

#if MFLA_ENABLE_LUT
namespace detail {
[[nodiscard]] inline std::atomic<bool>& lut_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail
#endif

/// Are the LUT fast paths active? Compile-time false when built with
/// MFLA_ENABLE_LUT=0; otherwise a runtime switch defaulting to on.
[[nodiscard]] inline bool lut_enabled() noexcept {
#if MFLA_ENABLE_LUT
  return detail::lut_flag().load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Toggle the LUT fast paths at runtime; returns the previous setting.
/// A no-op (always off) when compiled with MFLA_ENABLE_LUT=0.
inline bool set_lut_enabled(bool on) noexcept {
#if MFLA_ENABLE_LUT
  return detail::lut_flag().exchange(on, std::memory_order_relaxed);
#else
  (void)on;
  return false;
#endif
}

namespace accel {

enum class AccelKind { none, lut8, dec16_ieee, dec16_tapered };

template <typename T>
[[nodiscard]] consteval AccelKind accel_kind() noexcept {
  if constexpr (!HasScalarCodec<T>) {
    return AccelKind::none;
  } else if constexpr (ScalarCodec<T>::bits == 8) {
    return AccelKind::lut8;
  } else if constexpr (ScalarCodec<T>::bits == 16) {
    return ScalarCodec<T>::tapered ? AccelKind::dec16_tapered : AccelKind::dec16_ieee;
  } else {
    return AccelKind::none;
  }
}

/// Full operation tables for an 8-bit format: result bits for every
/// (a, b) operand pair of + and *, plus a 256-entry decode table.
template <typename T>
class Lut8 {
 public:
  using Codec = ScalarCodec<T>;
  using Storage = typename Codec::Storage;
  static_assert(Codec::bits == 8);

  [[nodiscard]] static const Lut8& instance() {
    static const Lut8 lut;
    return lut;
  }

  [[nodiscard]] T add(T a, T b) const noexcept {
    return Codec::from_bits(add_[index(a, b)]);
  }
  [[nodiscard]] T mul(T a, T b) const noexcept {
    return Codec::from_bits(mul_[index(a, b)]);
  }
  [[nodiscard]] double decode(Storage bits) const noexcept { return dec_[bits]; }

  // Bit-domain surface for precomputed-offset kernels (kernels/spmv.hpp):
  // an 8-bit SpMV can hoist `bits(a_k) << 8` out of the inner loop as a
  // per-nonzero row offset, turning each multiply into mul_at(offset | x).
  [[nodiscard]] Storage add_bits(Storage a, Storage b) const noexcept {
    return add_[(static_cast<std::size_t>(a) << 8) | b];
  }
  [[nodiscard]] Storage mul_at(std::size_t row_offset_or_bits) const noexcept {
    return mul_[row_offset_or_bits];
  }
  // Raw table bytes for the SELL-8 SpMV (kernels/spmv.hpp). mul is indexed
  // (a << 8) | b; add_t is the transposed add table, (b << 8) | a, so the
  // chained operand (the accumulator) lands in the low bits and folds into
  // the load's addressing mode instead of a dependent shift. add_t is built
  // as an explicit transpose of add_, never by assuming commutativity.
  [[nodiscard]] const Storage* add_t_data() const noexcept { return addt_.data(); }
  [[nodiscard]] const Storage* mul_data() const noexcept { return mul_.data(); }

 private:
  Lut8() : add_(65536), addt_(65536), mul_(65536), dec_(256) {
    for (unsigned a = 0; a < 256; ++a) {
      const T ta = Codec::from_bits(static_cast<Storage>(a));
      dec_[a] = Codec::bits_to_double(static_cast<Storage>(a));
      for (unsigned b = 0; b < 256; ++b) {
        const T tb = Codec::from_bits(static_cast<Storage>(b));
        add_[(a << 8) | b] = Codec::to_bits(ta + tb);
        mul_[(a << 8) | b] = Codec::to_bits(ta * tb);
      }
    }
    for (unsigned a = 0; a < 256; ++a)
      for (unsigned b = 0; b < 256; ++b) addt_[(b << 8) | a] = add_[(a << 8) | b];
  }

  [[nodiscard]] static std::size_t index(T a, T b) noexcept {
    return (static_cast<std::size_t>(Codec::to_bits(a)) << 8) |
           static_cast<std::size_t>(Codec::to_bits(b));
  }

  std::vector<Storage> add_;
  std::vector<Storage> addt_;
  std::vector<Storage> mul_;
  std::vector<double> dec_;
};

/// Decode tables for a 16-bit format: double per encoding, and for tapered
/// formats additionally the Unpacked (sign, exponent, significand) that
/// feeds the exact engine's arithmetic cores.
template <typename T>
class Dec16 {
 public:
  using Codec = ScalarCodec<T>;
  using Storage = typename Codec::Storage;
  static_assert(Codec::bits == 16);

  [[nodiscard]] static const Dec16& instance() {
    static const Dec16 lut;
    return lut;
  }

  [[nodiscard]] double decode(Storage bits) const noexcept { return dec_[bits]; }
  [[nodiscard]] const Unpacked& unpacked(Storage bits) const noexcept { return unp_[bits]; }

 private:
  Dec16() : dec_(65536), unp_(Codec::tapered ? 65536 : 0) {
    for (std::uint32_t b = 0; b < 65536; ++b) {
      dec_[b] = Codec::bits_to_double(static_cast<Storage>(b));
      if constexpr (Codec::tapered) {
        unp_[b] = Codec::bits_to_unpacked(static_cast<Storage>(b));
      }
    }
  }

  std::vector<double> dec_;
  std::vector<Unpacked> unp_;
};

// -- Scalar-operation policies ---------------------------------------------
// Each kernel body is written once against an `ops` policy; with_ops()
// below picks the policy for the scalar type (and the runtime LUT switch).

/// The exact engines: plain operator+ / operator*.
template <typename T>
struct NativeOps {
  [[nodiscard]] T add(T a, T b) const noexcept { return a + b; }
  [[nodiscard]] T mul(T a, T b) const noexcept { return a * b; }
};

#if MFLA_ENABLE_LUT

template <typename T>
struct Lut8Ops {
  const Lut8<T>& lut;
  [[nodiscard]] T add(T a, T b) const noexcept { return lut.add(a, b); }
  [[nodiscard]] T mul(T a, T b) const noexcept { return lut.mul(a, b); }
};

template <typename T>
struct Dec16IeeeOps {
  const Dec16<T>& lut;
  [[nodiscard]] T add(T a, T b) const noexcept {
    return T::from_double(lut.decode(a.bits()) + lut.decode(b.bits()));
  }
  [[nodiscard]] T mul(T a, T b) const noexcept {
    return T::from_double(lut.decode(a.bits()) * lut.decode(b.bits()));
  }
};

template <typename T>
struct Dec16TaperedOps {
  const Dec16<T>& lut;
  // Special cases mirror TaperedFloat's operator+/operator* exactly; only
  // the unpack step is replaced by a table load.
  [[nodiscard]] T add(T a, T b) const noexcept {
    if (a.is_nar() || b.is_nar()) return T::nar();
    if (a.is_zero()) return b;
    if (b.is_zero()) return a;
    return T::add_unpacked(lut.unpacked(a.bits()), lut.unpacked(b.bits()));
  }
  [[nodiscard]] T mul(T a, T b) const noexcept {
    if (a.is_nar() || b.is_nar()) return T::nar();
    if (a.is_zero() || b.is_zero()) return T::zero();
    return T::mul_unpacked(lut.unpacked(a.bits()), lut.unpacked(b.bits()));
  }
};

#endif  // MFLA_ENABLE_LUT

/// Invoke fn with the scalar-operation policy for T: the matching LUT
/// policy when one exists and LUTs are enabled, the exact engines
/// otherwise. The policy choice is hoisted out of the kernel loops — one
/// runtime flag check per kernel call, not per element.
template <typename T, class Fn>
decltype(auto) with_ops(Fn&& fn) {
#if MFLA_ENABLE_LUT
  constexpr AccelKind kind = accel_kind<T>();
  if constexpr (kind == AccelKind::lut8) {
    if (lut_enabled()) return fn(Lut8Ops<T>{Lut8<T>::instance()});
  } else if constexpr (kind == AccelKind::dec16_ieee) {
    if (lut_enabled()) return fn(Dec16IeeeOps<T>{Dec16<T>::instance()});
  } else if constexpr (kind == AccelKind::dec16_tapered) {
    if (lut_enabled()) return fn(Dec16TaperedOps<T>{Dec16<T>::instance()});
  }
#endif
  return fn(NativeOps<T>{});
}

}  // namespace accel
}  // namespace kernels
}  // namespace mfla

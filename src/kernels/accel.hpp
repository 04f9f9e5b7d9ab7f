// Lookup-table acceleration for the ≤16-bit formats.
//
// Every inner-loop scalar operation of the study's kernels normally pays
// full software emulation: SoftFloat round-trips through double (bit
// assembly on both sides) and TaperedFloat runs a 128-bit exact-significand
// engine per element. For narrow formats the whole operation space is small enough to
// precompute, so this header provides three acceleration tiers, selected
// per scalar type at compile time:
//
//  * 8-bit formats (OFP8 E4M3/E5M2, posit8, takum8) — the whole-operation
//    tables of arith/lut8.hpp (add/mul results, 256×256 = 64 KiB each),
//    the same copy the 8-bit resident grid reads. One table load replaces
//    a complete emulated operation.
//  * 16-bit IEEE-style formats (float16, bfloat16) — a 65536-entry double
//    decode table turns to_double into a single load; the encode side is
//    the exact, correctly rounded SoftFloat::from_double.
//  * 16-bit tapered formats (posit16, takum16) — a 65536-entry Unpacked
//    table replaces the decode bit-twiddling; the arithmetic core and the
//    encoding-level rounding are TaperedFloat::add_unpacked/mul_unpacked,
//    i.e. the exact engine itself.
//
// Every table entry equals the exact engine's result (arith/lut8.hpp gives
// the argument for the 8-bit tables; the 16-bit ones are the engine's own
// decodes), so the fast paths are bit-identical. tests/test_kernel_accel.cpp
// verifies this exhaustively for the 8-bit formats and by decode-exhaustion
// plus operand sampling for the 16-bit ones.
//
// Tables are built lazily on first use through a magic static (thread-safe
// since C++11) and shared by every thread of the experiment engine's pool.
// set_lut_enabled(false) switches these kernel paths off at runtime,
// leaving the exact reference engines (used by the bit-identity tests). It
// does not reach a resident solve: partialschur/lanczos_eigs of a format
// with kGridResident (arith/on_grid.hpp) run their dense work and the SpMV
// of a CsrMatrix<T> on OnGrid<T>, which ignores the switch (the 8-bit grid
// reads the tables regardless), so no CSR solve reads it. Only an operator
// the solver applies in T (detail::ResidentOp's foreign branch, e.g.
// e2ebench's TimingOp) and direct kernel calls over T honour it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arith/lut8.hpp"
#include "arith/traits.hpp"

namespace mfla {
namespace kernels {

namespace detail {
[[nodiscard]] inline std::atomic<bool>& lut_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

/// Are the LUT fast paths active? A runtime switch defaulting to on.
[[nodiscard]] inline bool lut_enabled() noexcept {
  return detail::lut_flag().load(std::memory_order_relaxed);
}

/// Toggle the LUT fast paths at runtime; returns the previous setting.
/// Kernels over T only: a resident solve (OnGrid<T>, its CSR SpMV
/// included) ignores it.
inline bool set_lut_enabled(bool on) noexcept {
  return detail::lut_flag().exchange(on, std::memory_order_relaxed);
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

/// Invoke fn with the scalar-operation policy for T: the matching LUT
/// policy when one exists and LUTs are enabled, the exact engines
/// otherwise. The policy choice is hoisted out of the kernel loops — one
/// runtime flag check per kernel call, not per element.
template <typename T, class Fn>
decltype(auto) with_ops(Fn&& fn) {
  constexpr AccelKind kind = accel_kind<T>();
  if constexpr (kind == AccelKind::lut8) {
    if (lut_enabled()) return fn(Lut8Ops<T>{Lut8<T>::instance()});
  } else if constexpr (kind == AccelKind::dec16_ieee) {
    if (lut_enabled()) return fn(Dec16IeeeOps<T>{Dec16<T>::instance()});
  } else if constexpr (kind == AccelKind::dec16_tapered) {
    if (lut_enabled()) return fn(Dec16TaperedOps<T>{Dec16<T>::instance()});
  }
  return fn(NativeOps<T>{});
}

}  // namespace accel
}  // namespace kernels
}  // namespace mfla

// Sparse matrix–vector product over CSR storage.
//
// The matvec accumulates in the working format T — this is the central
// kernel whose low-precision behavior the study measures. Like the dense
// kernels in vector_ops.hpp it is written once against a scalar-operation
// policy: the ≤16-bit formats take the bit-identical LUT fast paths from
// kernels/accel.hpp, everything else runs the exact engines.
//
// The 8-bit formats additionally get two execution plans, built once per
// matrix (sparse/csr.hpp): per-nonzero LUT row offsets, and on top of them
// a SELL-8 (sliced ELLPACK, slice height 8) layout. SELL-8 groups rows
// into slices of eight and stores their nonzeros slice-interleaved, so the
// slice's *independent* row chains advance in lock step. Each row's chain
// still executes in its original nonzero order over the very same tables,
// so the result is bit-identical; the win is instruction-level
// parallelism — a single row chain is bounded by the latency of its
// dependent table loads, eight interleaved chains keep the load ports busy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "kernels/accel.hpp"

namespace mfla {
namespace kernels {

namespace detail {

template <typename T, class Ops>
void spmv_impl(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
               const T* values, const T* x, T* y, const Ops& ops) noexcept {
  for (std::size_t i = 0; i < rows; ++i) {
    T acc(0);
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      acc = ops.add(acc, ops.mul(values[k], x[col_idx[k]]));
    }
    y[i] = acc;
  }
}

/// Byte view of an 8-bit scalar array: for the lut8 formats the codec
/// Storage byte *is* the object representation, so the SELL-8 kernel can
/// address encodings directly.
template <typename T>
[[nodiscard]] inline const std::uint8_t* byte_ptr(const T* p) noexcept {
  static_assert(sizeof(T) == 1 && std::is_trivially_copyable_v<T>);
  return reinterpret_cast<const std::uint8_t*>(p);
}
template <typename T>
[[nodiscard]] inline std::uint8_t* byte_ptr(T* p) noexcept {
  static_assert(sizeof(T) == 1 && std::is_trivially_copyable_v<T>);
  return reinterpret_cast<std::uint8_t*>(p);
}

}  // namespace detail

namespace ref {

template <typename T>
void spmv(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
          const T* values, const T* x, T* y) noexcept {
  detail::spmv_impl(rows, row_ptr, col_idx, values, x, y, accel::NativeOps<T>{});
}

}  // namespace ref

// -- 8-bit precomputed-offset fast path -------------------------------------

/// Is the offset plan meaningful for T? (8-bit formats with LUT support.)
template <typename T>
[[nodiscard]] consteval bool spmv_plan_supported() noexcept {
  return accel::accel_kind<T>() == accel::AccelKind::lut8;
}

/// Per-nonzero LUT row offsets for an 8-bit value array: offsets[k] is
/// bits(values[k]) << 8, i.e. the base index of that operand's row in the
/// 256x256 operation tables. Computed once per matrix (sparse/csr.hpp),
/// it removes the shift/or index arithmetic on the value operand from
/// every inner-loop multiply of every matvec.
template <typename T>
[[nodiscard]] std::vector<std::uint16_t> build_spmv_plan(const T* values, std::size_t nnz) {
  static_assert(spmv_plan_supported<T>());
  std::vector<std::uint16_t> offsets(nnz);
  using Codec = ScalarCodec<T>;
  for (std::size_t k = 0; k < nnz; ++k)
    offsets[k] = static_cast<std::uint16_t>(static_cast<std::uint16_t>(Codec::to_bits(values[k]))
                                            << 8);
  return offsets;
}

// -- SELL-8 plan ---------------------------------------------------------------

/// Sliced-ELL layout over the offset plan: rows are grouped into slices of
/// eight consecutive rows, padded to the longest row in the slice, with
/// one fused word (offset << 16) | col per (padded) nonzero stored
/// lane-interleaved (fused[base + 8 * t + c] is row c's t-th entry). Pad
/// entries replicate the row's last real nonzero so every load stays in
/// range; their results are discarded by the t < len guard in the kernel.
/// Built once per matrix alongside the offset plan (sparse/csr.hpp) and
/// invalidated with it.
struct SellPlan {
  static constexpr std::uint32_t kHeight = 8;
  struct Slice {
    std::uint32_t base = 0;           ///< first fused word of the slice
    std::uint32_t maxl = 0;           ///< longest row in the slice
    std::uint32_t len[kHeight] = {};  ///< row lengths (0 past the last row)
  };
  std::vector<Slice> slices;
  std::vector<std::uint32_t> fused;
  bool valid = false;

  void clear() noexcept {
    slices.clear();
    fused.clear();
    valid = false;
  }
};

/// Build the SELL-8 plan, or an invalid one when the layout cannot help:
/// columns beyond 16 bits (they must fit the fused word), or row lengths
/// so skewed that slice padding would blow the plan past ~4x the nonzero
/// count (the row-at-a-time planned loop is the fallback, slower never
/// wrong).
[[nodiscard]] inline SellPlan build_sell_plan(std::size_t rows, std::size_t cols,
                                              const std::uint32_t* row_ptr,
                                              const std::uint32_t* col_idx,
                                              const std::uint16_t* offsets) {
  constexpr std::size_t h = SellPlan::kHeight;
  SellPlan p;
  if (rows == 0 || cols > 65536) return p;
  std::size_t padded = 0;
  for (std::size_t r = 0; r < rows; r += h) {
    std::uint32_t maxl = 0;
    for (std::size_t c = 0; c < h && r + c < rows; ++c) {
      const std::uint32_t l = row_ptr[r + c + 1] - row_ptr[r + c];
      maxl = l > maxl ? l : maxl;
    }
    padded += h * maxl;
  }
  if (padded > 4 * std::size_t{row_ptr[rows]} + 64) return p;
  p.slices.reserve((rows + h - 1) / h);
  p.fused.resize(padded);
  std::size_t base = 0;
  for (std::size_t r = 0; r < rows; r += h) {
    SellPlan::Slice s;
    s.base = static_cast<std::uint32_t>(base);
    for (std::size_t c = 0; c < h && r + c < rows; ++c) {
      s.len[c] = row_ptr[r + c + 1] - row_ptr[r + c];
      s.maxl = s.len[c] > s.maxl ? s.len[c] : s.maxl;
    }
    for (std::size_t c = 0; c < h; ++c) {
      for (std::uint32_t t = 0; t < s.maxl; ++t) {
        std::uint32_t word = 0;
        if (s.len[c] != 0) {
          const std::uint32_t k = row_ptr[r + c] + (t < s.len[c] ? t : s.len[c] - 1);
          word = (static_cast<std::uint32_t>(offsets[k]) << 16) | col_idx[k];
        }
        p.fused[base + h * t + c] = word;
      }
    }
    base += h * s.maxl;
    p.slices.push_back(s);
  }
  p.valid = true;
  return p;
}

/// Planned SpMV over the SELL-8 plan, in the encoding-bit domain: eight
/// independent row chains advance in lock step (two nonzeros deep per
/// iteration on the unpadded prefix), hiding each chain's dependent-load
/// latency behind the other seven. Every chain is the scalar chain of its
/// row, in its original order — bit-identical by construction. `mul2d` is
/// the (a << 8) | b mul table, `addt` the transposed (b << 8) | a add
/// table, `x` the x encoding bytes.
inline void spmv_sell_bits(const std::uint8_t* mul2d, const std::uint8_t* addt,
                           const std::uint8_t* x, const SellPlan& plan, std::size_t rows,
                           std::uint8_t* y, std::uint8_t zero_bits) noexcept {
  for (std::size_t si = 0; si < plan.slices.size(); ++si) {
    const SellPlan::Slice& s = plan.slices[si];
    const std::uint32_t* f = plan.fused.data() + s.base;
    std::uint32_t a[8];
    for (int c = 0; c < 8; ++c) a[c] = zero_bits;
    std::uint32_t minl = s.len[0];
    for (int c = 1; c < 8; ++c) minl = s.len[c] < minl ? s.len[c] : minl;
    std::uint32_t t = 0;
    for (; t + 2 <= minl; t += 2) {
      std::uint32_t p0[8], p1[8];
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) {
        const std::uint32_t e = f[8 * t + c];
        p0[c] = mul2d[(e >> 16) | x[e & 0xffff]];
      }
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) {
        const std::uint32_t e = f[8 * t + 8 + c];
        p1[c] = mul2d[(e >> 16) | x[e & 0xffff]];
      }
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) a[c] = addt[(p0[c] << 8) + a[c]];
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) a[c] = addt[(p1[c] << 8) + a[c]];
    }
    for (; t < minl; ++t) {
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) {
        const std::uint32_t e = f[8 * t + c];
        const std::uint32_t p = mul2d[(e >> 16) | x[e & 0xffff]];
        a[c] = addt[(p << 8) + a[c]];
      }
    }
    for (; t < s.maxl; ++t) {
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) {
        const std::uint32_t e = f[8 * t + c];
        const std::uint32_t p = mul2d[(e >> 16) | x[e & 0xffff]];
        const std::uint32_t nx = addt[(p << 8) + a[c]];
        a[c] = t < s.len[c] ? nx : a[c];
      }
    }
    const std::size_t r0 = si * 8;
    for (std::size_t c = 0; c < 8 && r0 + c < rows; ++c)
      y[r0 + c] = static_cast<std::uint8_t>(a[c]);
  }
}

/// y := A x with the precomputed offset plan; bit-identical to the generic
/// LUT path (the accumulation runs in the bit domain over the very same
/// tables, in the very same order). Callers must check lut_enabled().
/// A valid SELL-8 plan runs the slice kernel; otherwise (no plan, or one
/// build_sell_plan rejected) the row-at-a-time loop below.
template <typename T>
void spmv_planned(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
                  const std::uint16_t* offsets, const T* x, T* y,
                  const SellPlan* sell = nullptr) noexcept {
  static_assert(spmv_plan_supported<T>());
  using Codec = ScalarCodec<T>;
  using Storage = typename Codec::Storage;
  const auto& lut = accel::Lut8<T>::instance();
  const Storage zero_bits = Codec::to_bits(T(0));
  if (sell != nullptr && sell->valid) {
    spmv_sell_bits(lut.mul_data(), lut.add_t_data(), detail::byte_ptr(x), *sell, rows,
                   detail::byte_ptr(y), zero_bits);
    return;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    Storage acc = zero_bits;
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const Storage prod =
          lut.mul_at(static_cast<std::size_t>(offsets[k]) |
                     static_cast<std::size_t>(Codec::to_bits(x[col_idx[k]])));
      acc = lut.add_bits(acc, prod);
    }
    y[i] = Codec::from_bits(acc);
  }
}

/// y := A x for CSR (row_ptr, col_idx, values), accumulated in T.
template <typename T>
void spmv(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
          const T* values, const T* x, T* y) {
  accel::with_ops<T>(
      [&](const auto& ops) { detail::spmv_impl(rows, row_ptr, col_idx, values, x, y, ops); });
}

}  // namespace kernels
}  // namespace mfla

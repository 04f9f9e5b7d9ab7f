// Runtime registry of the number formats evaluated in the paper, plus a
// compile-time dispatcher mapping a runtime FormatId onto the concrete
// scalar type (so the experiment driver can loop over formats).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "arith/traits.hpp"

namespace mfla {

enum class FormatId {
  ofp8_e4m3,
  ofp8_e5m2,
  posit8,
  takum8,
  float16,
  bfloat16,
  posit16,
  takum16,
  float32,
  posit32,
  takum32,
  float64,
  posit64,
  takum64,
  dd,
  float128,
};

struct FormatInfo {
  FormatId id;
  std::string name;    // e.g. "takum16"
  std::string key;     // short CLI/API key, e.g. "t16"
  int bits;            // storage width
  std::string family;  // "ieee" | "ofp8" | "posit" | "takum" | "dd"
  /// Reference arithmetics (double-double fast tier, float128 oracle):
  /// selectable as a reference tier, never as a format under evaluation —
  /// parse_format_keys rejects them and valid-key listings omit them.
  bool reference_only = false;
};

/// All formats of the study, in the paper's presentation order.
[[nodiscard]] const std::vector<FormatInfo>& all_formats();

[[nodiscard]] const FormatInfo& format_info(FormatId id);

/// The short selection key of a format ("t16", "bf16", ...), as accepted
/// by format_from_key and the mfla_experiment --formats option.
[[nodiscard]] const std::string& format_key(FormatId id);

/// Resolve a short key ("t16") to its FormatId. Unknown keys throw
/// std::invalid_argument whose message lists every valid key.
[[nodiscard]] FormatId format_from_key(const std::string& key);

/// Resolve a full format name ("takum16") to its FormatId; throws
/// std::invalid_argument on unknown names.
[[nodiscard]] FormatId format_from_name(const std::string& name);

/// Parse a comma-separated list of short keys ("f16,bf16,t16") into
/// FormatIds. Empty lists, unknown keys, duplicate keys and "f128" (the
/// reference arithmetic is not a format under evaluation) all throw
/// std::invalid_argument with a message naming the offending token.
[[nodiscard]] std::vector<FormatId> parse_format_keys(const std::string& spec);

/// The comma-separated keys of `ids` in order ("f16,bf16,t16"): the
/// spelling parse_format_keys reads back.
[[nodiscard]] std::string format_keys(const std::vector<FormatId>& ids);

template <typename T>
struct TypeTag {
  using type = T;
};

/// Invoke fn(TypeTag<T>{}) with the scalar type behind a FormatId.
template <class Fn>
decltype(auto) dispatch_format(FormatId id, Fn&& fn) {
  switch (id) {
    case FormatId::ofp8_e4m3: return fn(TypeTag<OFP8E4M3>{});
    case FormatId::ofp8_e5m2: return fn(TypeTag<OFP8E5M2>{});
    case FormatId::posit8: return fn(TypeTag<Posit8>{});
    case FormatId::takum8: return fn(TypeTag<Takum8>{});
    case FormatId::float16: return fn(TypeTag<Float16>{});
    case FormatId::bfloat16: return fn(TypeTag<BFloat16>{});
    case FormatId::posit16: return fn(TypeTag<Posit16>{});
    case FormatId::takum16: return fn(TypeTag<Takum16>{});
    case FormatId::float32: return fn(TypeTag<float>{});
    case FormatId::posit32: return fn(TypeTag<Posit32>{});
    case FormatId::takum32: return fn(TypeTag<Takum32>{});
    case FormatId::float64: return fn(TypeTag<double>{});
    case FormatId::posit64: return fn(TypeTag<Posit64>{});
    case FormatId::takum64: return fn(TypeTag<Takum64>{});
    case FormatId::dd: return fn(TypeTag<DoubleDouble>{});
    case FormatId::float128: return fn(TypeTag<Quad>{});
  }
  // A FormatId forged from an out-of-range integer must not silently run
  // the sweep in double; make it a hard error instead.
  throw std::invalid_argument("dispatch_format: invalid FormatId " +
                              std::to_string(static_cast<int>(id)));
}

}  // namespace mfla

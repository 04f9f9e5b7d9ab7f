#include "arith/format_registry.hpp"

#include <stdexcept>

namespace mfla {

const std::vector<FormatInfo>& all_formats() {
  static const std::vector<FormatInfo> table = {
      {FormatId::ofp8_e4m3, "OFP8 E4M3", "e4m3", 8, "ofp8"},
      {FormatId::ofp8_e5m2, "OFP8 E5M2", "e5m2", 8, "ofp8"},
      {FormatId::takum8, "takum8", "t8", 8, "takum"},
      {FormatId::posit8, "posit8", "p8", 8, "posit"},
      {FormatId::float16, "float16", "f16", 16, "ieee"},
      {FormatId::takum16, "takum16", "t16", 16, "takum"},
      {FormatId::posit16, "posit16", "p16", 16, "posit"},
      {FormatId::bfloat16, "bfloat16", "bf16", 16, "ieee"},
      {FormatId::float32, "float32", "f32", 32, "ieee"},
      {FormatId::takum32, "takum32", "t32", 32, "takum"},
      {FormatId::posit32, "posit32", "p32", 32, "posit"},
      {FormatId::float64, "float64", "f64", 64, "ieee"},
      {FormatId::takum64, "takum64", "t64", 64, "takum"},
      {FormatId::posit64, "posit64", "p64", 64, "posit"},
      {FormatId::dd, "dd", "dd", 128, "dd", /*reference_only=*/true},
      {FormatId::float128, "float128", "f128", 128, "ieee", /*reference_only=*/true},
  };
  return table;
}

const FormatInfo& format_info(FormatId id) {
  for (const auto& f : all_formats()) {
    if (f.id == id) return f;
  }
  throw std::invalid_argument("unknown format id");
}

const std::string& format_key(FormatId id) { return format_info(id).key; }

namespace {

/// The keys a sweep may select: everything except the reference
/// arithmetics (dd fast tier, float128 oracle).
std::string valid_keys_list() {
  std::string keys;
  for (const auto& f : all_formats()) {
    if (f.reference_only) continue;
    if (!keys.empty()) keys += ' ';
    keys += f.key;
  }
  return keys;
}

}  // namespace

FormatId format_from_key(const std::string& key) {
  for (const auto& f : all_formats()) {
    if (f.key == key) return f.id;
  }
  throw std::invalid_argument("unknown format key '" + key + "' (valid keys: " +
                              valid_keys_list() + ")");
}

FormatId format_from_name(const std::string& name) {
  for (const auto& f : all_formats()) {
    if (f.name == name) return f.id;
  }
  throw std::invalid_argument("unknown format '" + name + "'");
}

std::vector<FormatId> parse_format_keys(const std::string& spec) {
  std::vector<FormatId> out;
  std::string token;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ',') {
      if (!token.empty()) {
        const FormatId id = format_from_key(token);
        if (format_info(id).reference_only)
          throw std::invalid_argument(
              "'" + token + "' is the " + format_info(id).name +
              " reference arithmetic; it cannot be selected as a format under evaluation "
              "(pick the reference tier with --ref-tier / Sweep::reference_tier instead)");
        for (const FormatId seen : out) {
          if (seen == id)
            throw std::invalid_argument("duplicate format key '" + token + "'");
        }
        out.push_back(id);
        token.clear();
      }
    } else {
      token += spec[i];
    }
  }
  if (out.empty())
    throw std::invalid_argument("format list must name at least one key (valid keys: " +
                                valid_keys_list() + ")");
  return out;
}

std::string format_keys(const std::vector<FormatId>& ids) {
  std::string keys;
  for (const FormatId id : ids) {
    if (!keys.empty()) keys += ',';
    keys += format_key(id);
  }
  return keys;
}

}  // namespace mfla

// Strict integer parsing of option values, shared by the command-line
// tools. Each tool passes its own usage printer and usage exit code, so
// every tool keeps its own exit-code contract.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mfla::cli {

/// Parse `value` as a non-negative decimal integer no larger than `max`.
/// Anything else (empty, a sign, whitespace, trailing characters, overflow,
/// a value past `max`) is a usage error: the offending value is reported,
/// `print_usage(stderr)` runs and the process exits with `usage_exit`.
inline std::uint64_t parse_uint(const char* option, const std::string& value, std::uint64_t max,
                                void (*print_usage)(std::FILE*), int usage_exit) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos ||
      end != value.c_str() + value.size() || errno == ERANGE || v > max) {
    std::fprintf(stderr, "invalid value '%s' for %s (expected a non-negative integer <= %llu)\n",
                 value.c_str(), option, static_cast<unsigned long long>(max));
    print_usage(stderr);
    std::exit(usage_exit);
  }
  return v;
}

}  // namespace mfla::cli

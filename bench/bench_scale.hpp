// MFLA_BENCH_SCALE, the size multiplier every bench honors (smoke runs set
// it below 1; see docs/EXPERIMENTS.md).
#pragma once

#include <cstddef>
#include <cstdlib>

namespace mfla::benchtool {

/// MFLA_BENCH_SCALE as a positive factor; 1.0 when unset or unparsable.
inline double bench_scale() {
  const char* env = std::getenv("MFLA_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

/// A dataset size `n` under the scale, never below 3.
inline std::size_t scaled(std::size_t n) {
  const auto s = static_cast<std::size_t>(static_cast<double>(n) * bench_scale() + 0.5);
  return s < 3 ? 3 : s;
}

}  // namespace mfla::benchtool

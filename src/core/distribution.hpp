// Cumulative error distributions (paper §3): per (format, metric), the
// sorted log10 relative errors plus the ∞ω / ∞σ failure tallies that the
// figures mark beyond the top of each panel.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "arith/format_registry.hpp"
#include "core/experiment.hpp"

namespace mfla {

struct Distribution {
  FormatId format = FormatId::float64;
  std::string format_name;
  std::string metric;  // "eigenvalue" | "eigenvector"
  std::vector<double> sorted_log10;  // finite errors, ascending
  std::size_t n_total = 0;  // matrices with a valid reference
  std::size_t n_omega = 0;  // ∞ω: no convergence
  std::size_t n_sigma = 0;  // ∞σ: dynamic range exceeded

  [[nodiscard]] std::size_t n_finite() const { return sorted_log10.size(); }

  /// Percentile over the *full* population (failures count as +inf); NaN if
  /// the percentile falls into the failure tail.
  [[nodiscard]] double percentile(double p) const {
    if (n_total == 0) return std::nan("");
    const auto idx = static_cast<std::size_t>(p / 100.0 * static_cast<double>(n_total - 1) + 0.5);
    if (idx >= sorted_log10.size()) return std::nan("");
    return sorted_log10[idx];
  }
  [[nodiscard]] double median() const { return percentile(50.0); }
};

/// Clamp used for log10(0) (exact zeros plot at the paper's bottom edge).
inline constexpr double kLogFloor = -40.0;

[[nodiscard]] inline Distribution build_distribution(const std::vector<MatrixResult>& results,
                                                     FormatId format, bool eigenvectors) {
  Distribution d;
  d.format = format;
  d.format_name = format_info(format).name;
  d.metric = eigenvectors ? "eigenvector" : "eigenvalue";
  for (const auto& mr : results) {
    if (!mr.reference_ok) continue;
    for (const auto& run : mr.runs) {
      if (run.format != format) continue;
      ++d.n_total;
      switch (run.outcome) {
        case RunOutcome::range_exceeded:
          ++d.n_sigma;
          break;
        case RunOutcome::no_convergence:
        case RunOutcome::fault:  // solve-guard abort: no result, ∞ω tail
          ++d.n_omega;
          break;
        case RunOutcome::ok: {
          const double rel = eigenvectors ? run.eigenvector_error.relative
                                          : run.eigenvalue_error.relative;
          if (!std::isfinite(rel)) {
            ++d.n_omega;
          } else {
            const double lg = rel > 0 ? std::log10(rel) : kLogFloor;
            d.sorted_log10.push_back(std::max(lg, kLogFloor));
          }
          break;
        }
      }
    }
  }
  std::sort(d.sorted_log10.begin(), d.sorted_log10.end());
  return d;
}

}  // namespace mfla

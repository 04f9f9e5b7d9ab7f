// Error metrics and outcome classification (paper §2.2 end / §3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dense/matrix.hpp"

namespace mfla {

/// Run outcome categories used throughout the figures:
///   ok            — converged, finite errors;
///   no_convergence — the Arnoldi method did not converge (∞ω);
///   range_exceeded — matrix entries fell outside the format's dynamic
///                    range during conversion (∞σ);
///   fault         — the solve aborted (exception, breakdown) and the
///                   engine's solve guard recorded it as a structured
///                   failure instead of propagating; counted with ∞ω in
///                   the distributions.
enum class RunOutcome { ok, no_convergence, range_exceeded, fault };

/// Durability-layer I/O failure (journal, CSV, dataset files). Lets
/// callers (mfla_experiment exit codes) distinguish "the disk said no"
/// from usage errors and solve failures.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

/// A resumed checkpoint journal whose meta line records a different sweep
/// (nev, buffer, restarts, seed, formats or corpus size). The request, not
/// the solver, is at fault: mfla_experiment exits with its usage code.
class JournalMismatchError : public std::runtime_error {
 public:
  explicit JournalMismatchError(const std::string& what) : std::runtime_error(what) {}
};

struct ErrorPair {
  double absolute = std::numeric_limits<double>::infinity();
  double relative = std::numeric_limits<double>::infinity();
};

/// L2 errors over the first nev entries of the matched eigenvalue vectors.
[[nodiscard]] inline ErrorPair eigenvalue_errors(const std::vector<double>& ref,
                                                 const std::vector<double>& cmp,
                                                 std::size_t nev) {
  ErrorPair e;
  double diff2 = 0.0, ref2 = 0.0;
  for (std::size_t i = 0; i < nev && i < ref.size() && i < cmp.size(); ++i) {
    const double d = ref[i] - cmp[i];
    diff2 += d * d;
    ref2 += ref[i] * ref[i];
  }
  e.absolute = std::sqrt(diff2);
  e.relative = ref2 > 0 ? e.absolute / std::sqrt(ref2) : e.absolute;
  return e;
}

/// Frobenius errors over the first nev columns of the matched eigenvector
/// matrices (the stacked-L2 norm of the paper).
[[nodiscard]] inline ErrorPair eigenvector_errors(const DenseMatrix<double>& ref,
                                                  const DenseMatrix<double>& cmp,
                                                  std::size_t nev) {
  ErrorPair e;
  double diff2 = 0.0, ref2 = 0.0;
  const std::size_t cols = std::min({nev, ref.cols(), cmp.cols()});
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < ref.rows(); ++i) {
      const double d = ref(i, j) - cmp(i, j);
      diff2 += d * d;
      ref2 += ref(i, j) * ref(i, j);
    }
  }
  e.absolute = std::sqrt(diff2);
  e.relative = ref2 > 0 ? e.absolute / std::sqrt(ref2) : e.absolute;
  return e;
}

}  // namespace mfla

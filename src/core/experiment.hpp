// The experiment driver (paper §2.2): for each test matrix,
//   1. compute a reference partial Schur decomposition in float128
//      (tolerance 1e-20) for nev + buffer pairs,
//   2. for each format under evaluation: pre-check the dynamic range (∞σ),
//      convert, run partialschur in that format (per-width tolerance),
//      match eigenpairs (Hungarian on |cosine|, buffer = 2, sign fix),
//      and compute relative L2 errors over the first nev pairs,
//   3. classify the outcome (ok / ∞ω / ∞σ).
//
// This header holds the per-matrix stages and the types they share. The
// engine that schedules them over a corpus — thread pool, journal, resume,
// reference cache, cancellation, sink events — is api::Sweep
// (api/sweep.hpp). Every run depends only on (matrix, config): the start
// vector comes from an RNG stream derived from the matrix name, never from
// scheduling order, so results are bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arith/format_registry.hpp"
#include "core/errors.hpp"
#include "core/krylov_schur.hpp"
#include "core/matching.hpp"
#include "core/reference_tier.hpp"
#include "datasets/test_matrix.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace mfla {

/// The paper's reference-solve tolerance (float128, §2.2). Shared by
/// compute_reference and the reference cache key, so changing it here
/// invalidates every cached reference solution automatically.
inline constexpr double kReferenceTolerance = 1e-20;

/// Upper bounds on a sweep's size parameters, enforced wherever they arrive
/// from outside the process (mfla_experiment, mfla_client and the daemon's
/// request parser), so no request can make a sweep allocate without bound.
inline constexpr std::uint64_t kMaxCorpusCount = 1000000;  // matrices per corpus class
inline constexpr std::uint64_t kMaxEigenpairs = 10000;     // nev, and buffer
inline constexpr std::uint64_t kMaxRestarts = 1000000;     // max_restarts

/// The library-side check of those bounds (api::Sweep::run,
/// api::Solver::create): throws std::invalid_argument naming `who` and
/// `field` unless 0 <= value <= max.
template <typename Int>
void require_bounded(const char* who, const char* field, Int value, std::uint64_t max) {
  if (std::cmp_less(value, 0) || std::cmp_greater(value, max))
    throw std::invalid_argument(std::string(who) + ": " + field + " must be in [0, " +
                                std::to_string(max) + "], got " + std::to_string(value));
}

struct ExperimentConfig {
  std::size_t nev = 10;    // eigenvalue_count (paper: 10 largest)
  std::size_t buffer = 2;  // eigenvalue_buffer_count (paper: 2)
  Which which = Which::largest_magnitude;
  int max_restarts = 60;           // per-format restart budget
  int reference_max_restarts = 150;
  std::uint64_t seed = 0xa11ce;
  /// Reference arithmetic tier (core/reference_tier.hpp). The default runs
  /// every reference solve in float128, exactly as before the dd tier
  /// existed; dd_first tries double-double and promotes on an uncertified
  /// residual bound. Part of the reference-cache key and journal meta.
  ReferenceTier reference_tier = ReferenceTier::f128_only;
};

struct FormatRun {
  FormatId format = FormatId::float64;
  RunOutcome outcome = RunOutcome::no_convergence;
  ErrorPair eigenvalue_error;
  ErrorPair eigenvector_error;
  double mean_similarity = 0.0;
  std::size_t nconverged = 0;
  int restarts = 0;
  std::size_t matvecs = 0;
  /// Wall-clock seconds this run took (timing telemetry; journaled, but
  /// deliberately kept out of the numeric CSV columns, which must stay
  /// reproducible run-to-run).
  double duration_seconds = 0.0;
  std::string failure;
};

struct MatrixResult {
  std::string name;
  std::string klass;
  std::string category;
  std::size_t n = 0;
  std::size_t nnz = 0;
  bool reference_ok = false;
  std::string reference_failure;
  std::vector<FormatRun> runs;
};

struct ReferenceSolution {
  bool ok = false;
  std::string failure;
  std::vector<double> values;     // nev + buffer matched-order eigenvalues
  DenseMatrix<double> vectors;    // n x (nev + buffer)
};

/// Reference solve in float128 with the paper's 1e-20 tolerance.
[[nodiscard]] ReferenceSolution compute_reference(const TestMatrix& tm,
                                                  const ExperimentConfig& cfg,
                                                  const std::vector<double>& start);

/// A reference solve routed through the configured tier, plus what the
/// tier did (core/reference_tier.cpp).
struct TieredReference {
  ReferenceSolution solution;
  ReferenceTierTelemetry tier;
};

/// Reference solve honoring cfg.reference_tier: float128 directly under
/// f128_only; under dd_first a double-double solve whose residual bound is
/// certified against kReferenceTolerance, promoted to compute_reference
/// (bit-identical to f128_only) whenever certification fails.
[[nodiscard]] TieredReference compute_reference_tiered(const TestMatrix& tm,
                                                       const ExperimentConfig& cfg,
                                                       const std::vector<double>& start);

/// One format evaluation against a prepared reference.
template <typename T>
FormatRun run_format(const TestMatrix& tm, const ReferenceSolution& ref,
                     const ExperimentConfig& cfg, const std::vector<double>& start,
                     FormatId id) {
  FormatRun run;
  run.format = id;

  // ∞σ pre-check: does any entry leave the format's dynamic range?
  if (matrix_exceeds_range<T>(tm.matrix)) {
    run.outcome = RunOutcome::range_exceeded;
    run.failure = "matrix entries exceed dynamic range";
    return run;
  }

  const CsrMatrix<T> at = tm.matrix.convert<T>();
  PartialSchurOptions opts;
  opts.nev = cfg.nev + cfg.buffer;
  opts.which = cfg.which;
  opts.tolerance = NumTraits<T>::default_tolerance();
  opts.max_restarts = cfg.max_restarts;
  opts.start_vector = &start;
  opts.seed = fnv1a(tm.name) ^ 0x517e;
  const auto r = partialschur<T>(at, opts);
  run.restarts = r.restarts;
  run.matvecs = r.matvecs;
  run.nconverged = r.nconverged;
  if (!r.converged) {
    run.outcome = RunOutcome::no_convergence;
    run.failure = r.failure;
    return run;
  }

  // Convert results to double for matching/metrics (postprocessing step;
  // not part of the arithmetic under study).
  const std::size_t k = cfg.nev + cfg.buffer;
  const std::size_t kc = std::min(k, r.q.cols());
  DenseMatrix<double> vectors(tm.n(), kc);
  for (std::size_t j = 0; j < kc; ++j)
    for (std::size_t i = 0; i < tm.n(); ++i)
      vectors(i, j) = NumTraits<T>::to_double(r.q(i, j));
  std::vector<double> values(r.eig_re.begin(), r.eig_re.begin() + static_cast<long>(kc));

  const MatchResult match = match_eigenvectors(ref.vectors, vectors);
  const DenseMatrix<double> matched_vectors = apply_match(vectors, match);
  const std::vector<double> matched_values = apply_match(values, match);
  run.mean_similarity = match.mean_similarity;

  run.eigenvalue_error = eigenvalue_errors(ref.values, matched_values, cfg.nev);
  run.eigenvector_error = eigenvector_errors(ref.vectors, matched_vectors, cfg.nev);
  const bool finite = std::isfinite(run.eigenvalue_error.relative) &&
                      std::isfinite(run.eigenvector_error.relative);
  run.outcome = finite ? RunOutcome::ok : RunOutcome::no_convergence;
  return run;
}

/// Run one format identified at runtime (dispatches to run_format<T>).
[[nodiscard]] FormatRun run_format_dynamic(const TestMatrix& tm, const ReferenceSolution& ref,
                                           const ExperimentConfig& cfg,
                                           const std::vector<double>& start, FormatId id);

/// Aggregate counters for one api::Sweep::run() (SweepResult::stats). The
/// reference counters are what the cache tests and bench_reference_cache
/// observe: a fully warm sweep executes zero float128 solves.
struct SweepStats {
  std::size_t reference_solves = 0;   // reference solves executed (any tier)
  double reference_seconds = 0.0;     // wall-clock summed over those solves
  std::size_t reference_cache_hits = 0;
  double reference_cache_seconds = 0.0;  // wall-clock spent serving cache hits
  double format_seconds = 0.0;        // wall-clock summed over format runs
  // Reference-tier breakdown (core/reference_tier.hpp). Under f128_only
  // the dd counters stay zero and reference_f128_seconds ==
  // reference_seconds.
  std::size_t reference_dd_solves = 0;     // dd-tier solves attempted
  std::size_t reference_dd_certified = 0;  // dd results accepted by the bound
  std::size_t reference_promotions = 0;    // dd rejections re-solved in f128
  double reference_dd_seconds = 0.0;       // wall-clock of dd solves + certification
  double reference_f128_seconds = 0.0;     // wall-clock of float128 solves
  // Durability telemetry (docs/ROBUSTNESS.md). Journal recovery: what a
  // --resume adopted from (and discarded out of) the checkpoint file.
  std::size_t journal_replayed_runs = 0;      // runs adopted from the journal
  std::size_t journal_replayed_failures = 0;  // reference failures adopted
  std::size_t journal_discarded_lines = 0;    // torn/unknown lines skipped
  std::size_t journal_truncated_bytes = 0;    // torn tail physically removed
  // Solve guard: (matrix, format) runs whose solver aborted (exception)
  // and were recorded as RunOutcome::fault instead of killing the sweep,
  // plus reference solves whose abort was recorded as a reference failure.
  std::size_t solve_faults = 0;
  std::size_t reference_faults = 0;
  // Runs skipped because the Sweep::cancel flag fired mid-sweep. Nonzero
  // means the returned results are INCOMPLETE (the journal, if any, holds
  // everything that did finish and the sweep is resumable).
  std::size_t canceled_runs = 0;
};

}  // namespace mfla

// The traced pass: each unit replayed on one thread through the same public
// calls the untraced entry points make, with a span around every call.
//
//   traced_run_format<T>  mirrors run_format<T> (core/experiment.hpp) plus
//                         the engine's solve guard;
//   traced_solve          mirrors api::Solver::solve (krylov_schur).
//
// Results must be bit-identical to the untraced pass; bench.cpp checks.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "core/errors.hpp"
#include "core/experiment.hpp"
#include "core/matching.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace e2e {

/// Per-replay scratch and counters that spans alone do not carry.
struct ReplayCounters {
  std::vector<MatvecMark> marks;
  double spmv_bytes = 0.0;
  double spmv_flops = 0.0;
};

/// partialschur<T> behind a TimingOp, inside a `solver` span tiled with
/// its init/spmv/expand/restart children.
template <typename T>
mfla::PartialSchurResult<T> traced_partialschur(Tracer& tr, const mfla::CsrMatrix<T>& at,
                                                const mfla::PartialSchurOptions& opts,
                                                ReplayCounters& rc) {
  rc.marks.clear();
  const int span = tr.open(Name::solver);
  const auto finish = [&] {
    tr.close(span);
    add_solver_children(tr, span, rc.marks);
    rc.spmv_bytes += static_cast<double>(rc.marks.size()) * spmv_bytes(at);
    rc.spmv_flops += static_cast<double>(rc.marks.size()) * 2.0 * static_cast<double>(at.nnz());
  };
  try {
    auto r = mfla::partialschur<T>(TimingOp<T>(at, rc.marks), opts);
    finish();
    return r;
  } catch (...) {
    finish();
    throw;
  }
}

template <typename T>
mfla::FormatRun traced_run_format(Tracer& tr, const mfla::TestMatrix& tm,
                                  const mfla::ReferenceSolution& ref,
                                  const mfla::ExperimentConfig& cfg,
                                  const std::vector<double>& start, mfla::FormatId id,
                                  ReplayCounters& rc) {
  using namespace mfla;
  FormatRun run;
  run.format = id;

  bool exceeds = false;
  {
    Scope s(tr, Name::range_check);
    exceeds = matrix_exceeds_range<T>(tm.matrix);
  }
  if (exceeds) {
    run.outcome = RunOutcome::range_exceeded;
    run.failure = "matrix entries exceed dynamic range";
    return run;
  }

  const CsrMatrix<T> at = [&] {
    Scope s(tr, Name::convert);
    return tm.matrix.convert<T>();
  }();
  PartialSchurOptions opts;
  opts.nev = cfg.nev + cfg.buffer;
  opts.which = cfg.which;
  opts.tolerance = NumTraits<T>::default_tolerance();
  opts.max_restarts = cfg.max_restarts;
  opts.start_vector = &start;
  opts.seed = fnv1a(tm.name) ^ 0x517e;
  const auto r = traced_partialschur<T>(tr, at, opts, rc);
  run.restarts = r.restarts;
  run.matvecs = r.matvecs;
  run.nconverged = r.nconverged;
  if (!r.converged) {
    run.outcome = RunOutcome::no_convergence;
    run.failure = r.failure;
    return run;
  }

  const std::size_t k = cfg.nev + cfg.buffer;
  const std::size_t kc = std::min(k, r.q.cols());
  DenseMatrix<double> vectors(tm.n(), kc);
  std::vector<double> values;
  {
    Scope s(tr, Name::postprocess);
    for (std::size_t j = 0; j < kc; ++j)
      for (std::size_t i = 0; i < tm.n(); ++i) vectors(i, j) = NumTraits<T>::to_double(r.q(i, j));
    values.assign(r.eig_re.begin(), r.eig_re.begin() + static_cast<long>(kc));
  }

  Scope s(tr, Name::matching);
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

/// One (matrix, format) unit inside an `experiment.run` span, with the
/// engine's solve guard: an exception becomes a RunOutcome::fault run.
inline mfla::FormatRun traced_run(Tracer& tr, int unit, const mfla::TestMatrix& tm,
                                  const mfla::ReferenceSolution& ref,
                                  const mfla::ExperimentConfig& cfg,
                                  const std::vector<double>& start, mfla::FormatId id,
                                  ReplayCounters& rc) {
  using namespace mfla;
  Scope s(tr, Name::run, unit, static_cast<int>(id));
  FormatRun run;
  try {
    run = dispatch_format(id, [&](auto tag) {
      using T = typename decltype(tag)::type;
      return traced_run_format<T>(tr, tm, ref, cfg, start, id, rc);
    });
  } catch (const std::exception& e) {
    run = FormatRun{};
    run.format = id;
    run.outcome = RunOutcome::fault;
    run.failure = std::string("solve aborted: ") + e.what();
  }
  run.duration_seconds = static_cast<double>(now_ns() - tr.at(s.index()).start) * 1e-9;
  return run;
}

/// api::Solver::solve (krylov_schur) replayed; returns the same EigenResult.
template <typename T>
mfla::api::EigenResult traced_solve_as(Tracer& tr, const mfla::CsrMatrix<double>& a,
                                       const mfla::api::SolverOptions& o, ReplayCounters& rc) {
  using namespace mfla;
  PartialSchurOptions ps;
  ps.nev = o.nev;
  ps.which = o.which;
  ps.tolerance = o.tolerance;
  ps.mindim = o.mindim;
  ps.maxdim = o.maxdim;
  ps.max_restarts = o.max_restarts;
  ps.seed = o.seed;
  ps.start_vector = o.start_vector.empty() ? nullptr : &o.start_vector;
  const CsrMatrix<T> at = [&] {
    Scope s(tr, Name::convert);
    return a.convert<T>();
  }();
  const auto r = traced_partialschur<T>(tr, at, ps, rc);

  Scope s(tr, Name::postprocess);
  api::EigenResult out;
  out.converged = r.converged;
  out.nconverged = r.nconverged;
  out.restarts = r.restarts;
  out.matvecs = r.matvecs;
  out.failure = r.failure;
  out.eigenvalues = r.eig_re;
  out.eigenvalues_im = r.eig_im;
  out.vectors = DenseMatrix<double>(r.q.rows(), r.q.cols());
  for (std::size_t j = 0; j < r.q.cols(); ++j)
    for (std::size_t i = 0; i < r.q.rows(); ++i)
      out.vectors(i, j) = NumTraits<T>::to_double(r.q(i, j));
  out.rayleigh = DenseMatrix<double>(r.r.rows(), r.r.cols());
  for (std::size_t j = 0; j < r.r.cols(); ++j)
    for (std::size_t i = 0; i < r.r.rows(); ++i)
      out.rayleigh(i, j) = NumTraits<T>::to_double(r.r(i, j));
  return out;
}

inline mfla::api::EigenResult traced_solve(Tracer& tr, int unit, const mfla::api::Solver& solver,
                                           const mfla::CsrMatrix<double>& a, ReplayCounters& rc) {
  Scope s(tr, Name::solve_call, unit, static_cast<int>(solver.format()));
  if (solver.kind() != mfla::api::SolverKind::krylov_schur)
    throw std::invalid_argument("traced_solve replays krylov_schur handles only");
  return mfla::dispatch_format(solver.format(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    return traced_solve_as<T>(tr, a, solver.options(), rc);
  });
}

}  // namespace e2e

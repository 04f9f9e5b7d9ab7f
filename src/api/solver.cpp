#include "api/solver.hpp"

#include <stdexcept>
#include <utility>

#include "arith/quad.hpp"
#include "core/experiment.hpp"
#include "core/lanczos.hpp"

namespace mfla::api {

const char* solver_kind_name(SolverKind kind) noexcept {
  switch (kind) {
    case SolverKind::krylov_schur: return "krylov_schur";
    case SolverKind::lanczos: return "lanczos";
  }
  return "unknown";
}

Solver::Solver(FormatId format, SolverKind kind, SolverOptions opts)
    : format_(format), kind_(kind), opts_(std::move(opts)) {}

Solver Solver::create(FormatId format, SolverKind kind, SolverOptions opts) {
  (void)format_info(format);  // throws std::invalid_argument on unknown ids
  if (kind != SolverKind::krylov_schur && kind != SolverKind::lanczos)
    throw std::invalid_argument("Solver::create: unknown SolverKind");
  if (opts.nev == 0) throw std::invalid_argument("Solver::create: nev must be positive");
  require_bounded("Solver::create", "nev", opts.nev, kMaxEigenpairs);
  require_bounded("Solver::create", "max_restarts", opts.max_restarts, kMaxRestarts);
  return Solver(format, kind, std::move(opts));
}

namespace {

template <typename T>
EigenResult erase_result(const PartialSchurResult<T>& r) {
  EigenResult out;
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

}  // namespace

EigenResult Solver::solve(const CsrMatrix<double>& a) const {
  PartialSchurOptions ps;
  ps.nev = opts_.nev;
  ps.which = opts_.which;
  ps.tolerance = opts_.tolerance;  // 0 falls through to the format default
  ps.mindim = opts_.mindim;
  ps.maxdim = opts_.maxdim;
  ps.max_restarts = opts_.max_restarts;
  ps.seed = opts_.seed;
  ps.start_vector = opts_.start_vector.empty() ? nullptr : &opts_.start_vector;
  return dispatch_format(format_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    const CsrMatrix<T> at = a.convert<T>();
    const auto r =
        kind_ == SolverKind::lanczos ? lanczos_eigs<T>(at, ps) : partialschur<T>(at, ps);
    return erase_result<T>(r);
  });
}

}  // namespace mfla::api

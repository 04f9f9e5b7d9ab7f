// The per-matrix stages of the experiment: the float128 reference solve and
// one format run against it. The task-parallel engine that schedules them
// over a corpus is api::Sweep (api/sweep.cpp).
#include "core/experiment.hpp"

#include <chrono>

#include "arith/quad.hpp"

namespace mfla {

ReferenceSolution compute_reference(const TestMatrix& tm, const ExperimentConfig& cfg,
                                    const std::vector<double>& start) {
  ReferenceSolution ref;
  const CsrMatrix<Quad> aq = tm.matrix.convert<Quad>();
  PartialSchurOptions opts;
  opts.nev = cfg.nev + cfg.buffer;
  opts.which = cfg.which;
  opts.tolerance = kReferenceTolerance;
  opts.max_restarts = cfg.reference_max_restarts;
  opts.start_vector = &start;
  const auto r = partialschur<Quad>(aq, opts);
  if (!r.converged) {
    ref.failure = r.failure.empty() ? "reference did not converge" : r.failure;
    return ref;
  }
  const std::size_t k = cfg.nev + cfg.buffer;
  ref.values.assign(r.eig_re.begin(), r.eig_re.begin() + static_cast<long>(k));
  ref.vectors = DenseMatrix<double>(tm.n(), k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < tm.n(); ++i)
      ref.vectors(i, j) = NumTraits<Quad>::to_double(r.q(i, j));
  ref.ok = true;
  return ref;
}

FormatRun run_format_dynamic(const TestMatrix& tm, const ReferenceSolution& ref,
                             const ExperimentConfig& cfg, const std::vector<double>& start,
                             FormatId id) {
  const auto t0 = std::chrono::steady_clock::now();
  FormatRun run = dispatch_format(id, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_format<T>(tm, ref, cfg, start, id);
  });
  run.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return run;
}

}  // namespace mfla

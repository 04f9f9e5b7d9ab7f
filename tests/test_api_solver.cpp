// api::Solver handle tests: the runtime handles must be pure facades over
// the template solver cores — digests of Solver results are pinned to the
// SAME golden constants that pin partialschur<T> (test_arnoldi_workspace),
// and the lanczos handles must reproduce lanczos_eigs<T> bit-for-bit, for
// all eight <=16-bit formats.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "api/api.hpp"

namespace mfla {
namespace {

// Same matrix and start vector as tests/test_arnoldi_workspace.cpp, so the
// golden digests below are shared verbatim.
CsrMatrix<double> solver_matrix() {
  Rng gr(0x60a1);
  return CsrMatrix<double>::from_coo(graph_laplacian_pipeline(erdos_renyi(48, 0.18, gr)));
}

std::vector<double> golden_start(std::size_t n) {
  SplitMix64 sm(0x5eedf00dull);
  std::vector<double> v(n);
  double nrm2 = 0.0;
  for (auto& x : v) {
    x = static_cast<double>(sm.next() >> 11) * 0x1.0p-52 - 1.0;
    nrm2 += x * x;
  }
  const double inv = 1.0 / mfla::sqrt(nrm2);
  for (auto& x : v) x *= inv;
  return v;
}

api::SolverOptions golden_options(const std::vector<double>& start) {
  api::SolverOptions opts;
  opts.nev = 6;
  opts.which = Which::largest_magnitude;
  opts.tolerance = 0.0;  // per-format default, same values the goldens used
  opts.max_restarts = 60;
  opts.seed = 0xbeef;
  opts.start_vector = start;
  return opts;
}

/// Digest of a type-erased EigenResult, field-for-field the same hash the
/// template-path digest in test_arnoldi_workspace.cpp computes.
Hash128 digest(const api::EigenResult& r) {
  Hasher h;
  h.u64(r.converged ? 1 : 0).u64(r.nconverged).u64(static_cast<std::uint64_t>(r.restarts));
  h.u64(r.matvecs);
  h.span(r.eigenvalues.data(), r.eigenvalues.size());
  h.span(r.eigenvalues_im.data(), r.eigenvalues_im.size());
  for (std::size_t j = 0; j < r.vectors.cols(); ++j)
    for (std::size_t i = 0; i < r.vectors.rows(); ++i) h.f64(r.vectors(i, j));
  for (std::size_t j = 0; j < r.rayleigh.cols(); ++j)
    for (std::size_t i = 0; i < r.rayleigh.rows(); ++i) h.f64(r.rayleigh(i, j));
  return h.finish();
}

/// Reference digest straight from the template core, erased the same way
/// the Solver handle erases its result.
template <typename T, typename SolveFn>
Hash128 template_digest(const CsrMatrix<double>& ad, const std::vector<double>& start,
                        SolveFn&& solve) {
  const CsrMatrix<T> a = ad.convert<T>();
  PartialSchurOptions opts;
  opts.nev = 6;
  opts.which = Which::largest_magnitude;
  opts.tolerance = NumTraits<T>::default_tolerance();
  opts.max_restarts = 60;
  opts.start_vector = &start;
  opts.seed = 0xbeef;
  const auto r = solve(a, opts);
  Hasher h;
  h.u64(r.converged ? 1 : 0).u64(r.nconverged).u64(static_cast<std::uint64_t>(r.restarts));
  h.u64(r.matvecs);
  h.span(r.eig_re.data(), r.eig_re.size());
  h.span(r.eig_im.data(), r.eig_im.size());
  for (std::size_t j = 0; j < r.q.cols(); ++j)
    for (std::size_t i = 0; i < r.q.rows(); ++i) h.f64(NumTraits<T>::to_double(r.q(i, j)));
  for (std::size_t j = 0; j < r.r.cols(); ++j)
    for (std::size_t i = 0; i < r.r.rows(); ++i) h.f64(NumTraits<T>::to_double(r.r(i, j)));
  return h.finish();
}

TEST(ApiSolver, KrylovSchurDigestsMatchTemplateGoldens) {
  // The golden digests of test_arnoldi_workspace.cpp (captured from the
  // pre-workspace-refactor solver): the runtime handle must land on the
  // exact same bits for every <=16-bit format.
  const std::map<std::string, Hash128> golden = {
      {"e4m3", {0xa178776472d802d2ull, 0xf99c4f9ed025570bull}},
      {"e5m2", {0x1c4b0558d0a270a7ull, 0x16a6a59116bad84dull}},
      {"p8", {0xe0533f1a6d8f96d7ull, 0xab54545ea95cb493ull}},
      {"t8", {0xeb5aa60d0fe59a9cull, 0xea094799c8846e27ull}},
      {"f16", {0x81bf7d81a26f25edull, 0xe8d0e39f0fa88e4bull}},
      {"bf16", {0xd79508f1a1255361ull, 0x749e458b99697d45ull}},
      {"p16", {0x34bdb8094c1fb666ull, 0xa8a54a99e3dd41b3ull}},
      {"t16", {0x78ea1da36a9e7c3dull, 0x034aeee182ddf984ull}},
  };
  const CsrMatrix<double> a = solver_matrix();
  ASSERT_EQ(a.rows(), 48u);
  ASSERT_EQ(a.nnz(), 440u);
  const std::vector<double> start = golden_start(a.rows());
  const api::SolverOptions opts = golden_options(start);

  for (const auto& [key, want] : golden) {
    const api::Solver solver =
        api::Solver::create(format_from_key(key), api::SolverKind::krylov_schur, opts);
    EXPECT_EQ(digest(solver.solve(a)), want)
        << "api::Solver<" << key << "> diverged from the partialschur golden bits";
  }
}

TEST(ApiSolver, LanczosDigestsMatchTemplateCore) {
  const CsrMatrix<double> a = solver_matrix();
  const std::vector<double> start = golden_start(a.rows());
  const api::SolverOptions opts = golden_options(start);

  const auto check = [&](const char* key, auto tag) {
    using T = typename decltype(tag)::type;
    const Hash128 want = template_digest<T>(a, start, [](const CsrMatrix<T>& at,
                                                         const PartialSchurOptions& o) {
      return lanczos_eigs<T>(at, o);
    });
    const api::Solver solver =
        api::Solver::create(format_from_key(key), api::SolverKind::lanczos, opts);
    EXPECT_EQ(digest(solver.solve(a)), want)
        << "api::Solver lanczos<" << key << "> diverged from lanczos_eigs";
  };
  check("e4m3", TypeTag<OFP8E4M3>{});
  check("e5m2", TypeTag<OFP8E5M2>{});
  check("p8", TypeTag<Posit8>{});
  check("t8", TypeTag<Takum8>{});
  check("f16", TypeTag<Float16>{});
  check("bf16", TypeTag<BFloat16>{});
  check("p16", TypeTag<Posit16>{});
  check("t16", TypeTag<Takum16>{});
}

TEST(ApiSolver, CreateValidatesArguments) {
  EXPECT_THROW((void)api::Solver::create(static_cast<FormatId>(999),
                                         api::SolverKind::krylov_schur),
               std::invalid_argument);
  EXPECT_THROW((void)api::Solver::create(FormatId::float64, static_cast<api::SolverKind>(7)),
               std::invalid_argument);
  api::SolverOptions opts;
  opts.nev = 0;
  EXPECT_THROW((void)api::Solver::create(FormatId::float64, api::SolverKind::krylov_schur, opts),
               std::invalid_argument);

  // The CLI/daemon bounds (kMaxEigenpairs, kMaxRestarts) and a negative
  // restart budget, each rejected with the field named.
  const auto expect_rejects_field = [](const api::SolverOptions& o, const std::string& field) {
    for (const auto kind : {api::SolverKind::krylov_schur, api::SolverKind::lanczos}) {
      try {
        (void)api::Solver::create(FormatId::float64, kind, o);
        ADD_FAILURE() << field << ": no exception";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    }
  };
  api::SolverOptions big_nev;
  big_nev.nev = kMaxEigenpairs + 1;
  expect_rejects_field(big_nev, "nev");
  api::SolverOptions negative_restarts;
  negative_restarts.max_restarts = -1;
  expect_rejects_field(negative_restarts, "max_restarts");
  api::SolverOptions many_restarts;
  many_restarts.max_restarts = static_cast<int>(kMaxRestarts) + 1;
  expect_rejects_field(many_restarts, "max_restarts");
}

TEST(ApiSolver, RuntimeSelectionOpensNewScenarios) {
  // The smallest-magnitude scenario as a one-liner: both solver kinds on a
  // small SPD stencil, smallest eigenvalues of the 1-D Laplacian.
  CooMatrix coo(32, 32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < 32) {
      coo.add(i, i + 1, -1.0);
      coo.add(i + 1, i, -1.0);
    }
  }
  const auto a = CsrMatrix<double>::from_coo(coo);

  api::SolverOptions opts;
  opts.nev = 4;
  opts.which = Which::smallest_magnitude;
  opts.max_restarts = 300;
  for (const api::SolverKind kind : {api::SolverKind::krylov_schur, api::SolverKind::lanczos}) {
    const auto r = api::Solver::create(FormatId::float64, kind, opts).solve(a);
    ASSERT_TRUE(r.converged) << solver_kind_name(kind) << ": " << r.failure;
    ASSERT_GE(r.eigenvalues.size(), 4u);
    // lambda_k = 2 - 2 cos(k pi / 33), smallest first.
    for (std::size_t k = 1; k <= 4; ++k) {
      const double expect = 2.0 - 2.0 * std::cos(static_cast<double>(k) * M_PI / 33.0);
      EXPECT_NEAR(r.eigenvalues[k - 1], expect, 1e-8)
          << solver_kind_name(kind) << " eigenvalue " << k;
    }
  }
  EXPECT_STREQ(solver_kind_name(api::SolverKind::krylov_schur), "krylov_schur");
  EXPECT_STREQ(solver_kind_name(api::SolverKind::lanczos), "lanczos");
}

TEST(ApiSolver, AccessorsExposeConfiguration) {
  api::SolverOptions opts;
  opts.nev = 7;
  const api::Solver s = api::Solver::create(FormatId::takum16, api::SolverKind::lanczos, opts);
  EXPECT_EQ(s.format(), FormatId::takum16);
  EXPECT_EQ(s.kind(), api::SolverKind::lanczos);
  EXPECT_EQ(s.options().nev, 7u);
}

}  // namespace
}  // namespace mfla

// Robustness / failure-injection tests: degenerate inputs, poisoned
// values, overflow paths — the library must fail gracefully (reported
// outcome, no crash, no silent garbage) in every case.
#include <gtest/gtest.h>

#include <cmath>

#include "api/sweep.hpp"
#include "core/experiment.hpp"
#include "core/lanczos.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

CsrMatrix<double> from_entries(std::size_t n,
                               const std::vector<std::tuple<std::uint32_t, std::uint32_t, double>>& es) {
  CooMatrix coo(n, n);
  for (const auto& [i, j, v] : es) coo.add(i, j, v);
  return CsrMatrix<double>::from_coo(coo);
}

TEST(Robustness, ZeroMatrixConverges) {
  const CsrMatrix<double> a = from_entries(24, {});
  PartialSchurOptions opts;
  opts.nev = 4;
  opts.tolerance = 1e-10;
  const auto r = partialschur<double>(a, opts);
  ASSERT_TRUE(r.converged) << r.failure;
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(r.eig_re[i], 0.0);
}

TEST(Robustness, IdentityMatrixFullMultiplicity) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> es;
  for (std::uint32_t i = 0; i < 30; ++i) es.emplace_back(i, i, 1.0);
  const auto a = from_entries(30, es);
  PartialSchurOptions opts;
  opts.nev = 5;
  opts.tolerance = 1e-10;
  opts.max_restarts = 100;
  const auto r = partialschur<double>(a, opts);
  ASSERT_TRUE(r.converged) << r.failure;
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(r.eig_re[i], 1.0, 1e-10);
}

TEST(Robustness, NanEntryFailsGracefully) {
  const auto a = from_entries(20, {{0, 0, 1.0}, {3, 4, std::nan("")}, {4, 3, std::nan("")}});
  PartialSchurOptions opts;
  opts.nev = 3;
  const auto r = partialschur<double>(a, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.failure.empty());
}

TEST(Robustness, MixedSignSpectrumLargestMagnitude) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> es;
  for (std::uint32_t i = 0; i < 20; ++i) {
    es.emplace_back(i, i, (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(i + 1));
  }
  const auto a = from_entries(20, es);
  PartialSchurOptions opts;
  opts.nev = 4;
  opts.tolerance = 1e-11;
  const auto r = partialschur<double>(a, opts);
  ASSERT_TRUE(r.converged) << r.failure;
  // Largest magnitudes: -20, 19, -18, 17.
  EXPECT_NEAR(std::abs(r.eig_re[0]), 20.0, 1e-9);
  EXPECT_NEAR(std::abs(r.eig_re[1]), 19.0, 1e-9);
  EXPECT_NEAR(std::abs(r.eig_re[2]), 18.0, 1e-9);
}

TEST(Robustness, Float16MatvecOverflowClassifiedOmega) {
  // Entries representable in float16 but row sums overflow during matvec:
  // conversion passes the ∞σ check, the run itself dies -> ∞ω. Entries are
  // varied so the spectrum is non-degenerate (the reference must converge).
  Rng rng(1301);
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> es;
  for (std::uint32_t i = 0; i < 24; ++i) {
    for (std::uint32_t j = i + 1; j < 24; ++j) {
      const double v = rng.uniform(20000.0, 40000.0);  // < 65504 (fp16 max)
      es.emplace_back(i, j, v);
      es.emplace_back(j, i, v);
    }
    es.emplace_back(i, i, rng.uniform(30000.0, 50000.0));
  }
  const auto a = from_entries(24, es);
  TestMatrix tm;
  tm.name = "overflow16";
  tm.klass = "general";
  tm.category = "stress";
  tm.matrix = a;
  ExperimentConfig cfg;
  cfg.max_restarts = 30;
  const auto res = api::Sweep::over({tm})
                       .formats({FormatId::float16, FormatId::takum16})
                       .config(cfg)
                       .run()
                       .results.front();
  ASSERT_TRUE(res.reference_ok) << res.reference_failure;
  EXPECT_EQ(res.runs[0].outcome, RunOutcome::no_convergence);  // fp16 overflow -> NaN
  // takum16 saturates instead of overflowing: it may converge or not, but
  // must never report a range failure.
  EXPECT_NE(res.runs[1].outcome, RunOutcome::range_exceeded);
}

TEST(Robustness, TinyMatrixReferencePath) {
  // n too small for nev + buffer: the solver reports failure, the engine
  // surfaces it as a reference failure, nothing crashes.
  const auto a = from_entries(6, {{0, 0, 2.0}, {1, 1, 1.0}, {2, 2, 3.0}});
  TestMatrix tm;
  tm.name = "tiny";
  tm.klass = "general";
  tm.category = "stress";
  tm.matrix = a;
  ExperimentConfig cfg;  // nev 10 + buffer 2 > n
  const auto res =
      api::Sweep::over({tm}).formats({FormatId::float64}).config(cfg).run().results.front();
  EXPECT_FALSE(res.reference_ok);
  EXPECT_FALSE(res.reference_failure.empty());
}

TEST(Robustness, LanczosZeroAndNanInputs) {
  const CsrMatrix<double> zero = from_entries(20, {});
  PartialSchurOptions opts;
  opts.nev = 3;
  const auto rz = lanczos_eigs<double>(zero, opts);
  EXPECT_TRUE(rz.converged) << rz.failure;
  const auto bad = from_entries(20, {{2, 2, std::numeric_limits<double>::infinity()}});
  const auto rb = lanczos_eigs<double>(bad, opts);
  EXPECT_FALSE(rb.converged);
}

TEST(Robustness, EmptyGraphPipeline) {
  CooMatrix empty(0, 0);
  const CooMatrix lap = graph_laplacian_pipeline(empty);
  EXPECT_EQ(lap.rows(), 0u);
  EXPECT_EQ(lap.nnz(), 0u);
}

TEST(Robustness, IsolatedVerticesOnlyGraph) {
  CooMatrix adj(10, 10);  // no edges at all
  const CooMatrix lap = normalized_laplacian(adj);
  EXPECT_EQ(lap.nnz(), 0u);
}

TEST(Robustness, CsrEmptyMatvec) {
  const CsrMatrix<double> a = from_entries(5, {});
  const double x[5] = {1, 2, 3, 4, 5};
  double y[5] = {9, 9, 9, 9, 9};
  a.matvec(x, y);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Robustness, OFP8DivisionSemantics) {
  // E4M3 has no infinity: x/0 must produce NaN. E5M2 is IEEE-like: inf.
  EXPECT_TRUE((OFP8E4M3(1.0) / OFP8E4M3(0.0)).is_nan());
  EXPECT_TRUE((OFP8E5M2(1.0) / OFP8E5M2(0.0)).is_inf());
}

TEST(Robustness, CrossFormatMatrixConversionChain) {
  // double -> takum32 -> float -> posit16: conversions compose and stay
  // within each format's rounding (pattern preserved throughout).
  Rng rng(1300);
  const CooMatrix lap = graph_laplacian_pipeline(erdos_renyi(40, 0.2, rng));
  const auto a = CsrMatrix<double>::from_coo(lap);
  const auto chain = a.convert<Takum32>().convert<float>().convert<Posit16>();
  EXPECT_EQ(chain.nnz(), a.nnz());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(chain.at(i, i).to_double(), a.at(i, i), 1e-3);
  }
}

TEST(Robustness, StartVectorAllZerosInTargetFormat) {
  // A start vector whose entries all underflow the format: detected and
  // reported, not silently divided by zero. (OFP8 E4M3 flushes 1e-6 to 0.)
  const auto a = from_entries(20, {{0, 0, 1.0}, {1, 1, 2.0}});
  const auto a8 = a.convert<OFP8E4M3>();
  std::vector<double> start(20, 0.0);
  start[0] = 1e-6;
  PartialSchurOptions opts;
  opts.nev = 2;
  opts.start_vector = &start;
  const auto r = partialschur<OFP8E4M3>(a8, opts);
  if (!r.converged) {
    EXPECT_FALSE(r.failure.empty());
  }
  SUCCEED();  // reaching here without UB/crash is the contract
}

TEST(Robustness, HungarianDegenerateSimilarity) {
  // All-zero eigenvector blocks produce zero similarity rows; matching must
  // still return a valid permutation.
  DenseMatrix<double> ref(10, 3), cmp(10, 3);
  ref(0, 0) = 1.0;  // only one non-degenerate column
  const auto match = match_eigenvectors(ref, cmp);
  EXPECT_EQ(match.permutation.size(), 3u);
  for (const int p : match.permutation) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

}  // namespace
}  // namespace mfla

// End-to-end experiment pipeline tests: reference solve, per-format runs,
// outcome classification (∞ω / ∞σ), distributions and reports, driven
// through the engine entry point api::Sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "api/sweep.hpp"
#include "core/distribution.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "datasets/general_corpus.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

TestMatrix laplacian_test_matrix(const char* name, const CooMatrix& adj) {
  return make_test_matrix(name, "social", "soc", graph_laplacian_pipeline(adj));
}

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.max_restarts = 80;
  cfg.reference_max_restarts = 150;
  return cfg;
}

/// One matrix through the engine with default engine options.
MatrixResult run_one(const TestMatrix& tm, const std::vector<FormatId>& formats,
                     const ExperimentConfig& cfg) {
  return api::Sweep::over({tm}).formats(formats).config(cfg).run().results.front();
}

TEST(Experiment, ReferenceSolveConverges) {
  Rng rng(1001);
  const auto tm = laplacian_test_matrix("ref_test", stochastic_block(80, 2, 0.3, 0.03, rng));
  const ExperimentConfig cfg = fast_config();
  Rng sr(tm.name, cfg.seed);
  const auto start = sr.unit_vector(tm.n());
  const auto ref = compute_reference(tm, cfg, start);
  ASSERT_TRUE(ref.ok) << ref.failure;
  EXPECT_EQ(ref.values.size(), cfg.nev + cfg.buffer);
  EXPECT_EQ(ref.vectors.cols(), cfg.nev + cfg.buffer);
  // Laplacian spectrum within [0, 2], descending magnitudes.
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    EXPECT_GE(ref.values[i], -1e-12);
    EXPECT_LE(ref.values[i], 2.0 + 1e-12);
    if (i > 0) {
      EXPECT_GE(std::abs(ref.values[i - 1]), std::abs(ref.values[i]) - 1e-9);
    }
  }
}

TEST(Experiment, Float64NearExact) {
  Rng rng(1002);
  const auto tm = laplacian_test_matrix("f64_test", erdos_renyi(100, 0.08, rng));
  const auto res = run_one(tm, {FormatId::float64}, fast_config());
  ASSERT_TRUE(res.reference_ok) << res.reference_failure;
  ASSERT_EQ(res.runs.size(), 1u);
  EXPECT_EQ(res.runs[0].outcome, RunOutcome::ok);
  EXPECT_LT(res.runs[0].eigenvalue_error.relative, 1e-9);
  EXPECT_LT(res.runs[0].eigenvector_error.relative, 1e-6);
  EXPECT_GT(res.runs[0].mean_similarity, 0.999999);
}

TEST(Experiment, RangeExceededClassification) {
  // A matrix with entries far outside E4M3 range must classify ∞σ without
  // even running, and float64 must still pass.
  CooMatrix coo(20, 20);
  for (std::uint32_t i = 0; i < 20; ++i) coo.add(i, i, 1.0 + i);
  coo.add(0, 1, 1e7);
  coo.add(1, 0, 1e7);
  TestMatrix tm = make_test_matrix("sigma_test", "general", "widerange",
                                   coo);
  const auto res =
      run_one(tm, {FormatId::ofp8_e4m3, FormatId::float16, FormatId::takum8, FormatId::float64},
              fast_config());
  ASSERT_TRUE(res.reference_ok);
  EXPECT_EQ(res.runs[0].outcome, RunOutcome::range_exceeded);  // E4M3: 1e7 >> 448
  EXPECT_EQ(res.runs[1].outcome, RunOutcome::range_exceeded);  // float16: 1e7 >> 65504
  EXPECT_NE(res.runs[2].outcome, RunOutcome::range_exceeded);  // takum8 saturates
  EXPECT_EQ(res.runs[3].outcome, RunOutcome::ok);
}

TEST(Experiment, NoConvergenceClassification) {
  ExperimentConfig cfg = fast_config();
  cfg.max_restarts = 0;  // impossible budget
  Rng rng(1003);
  const auto tm = laplacian_test_matrix("omega_test", erdos_renyi(120, 0.06, rng));
  const auto res = run_one(tm, {FormatId::float32}, cfg);
  ASSERT_TRUE(res.reference_ok);
  EXPECT_EQ(res.runs[0].outcome, RunOutcome::no_convergence);
}

TEST(Experiment, MultiFormatOrdering) {
  // The paper's central qualitative claim at 16/32 bits on graphs:
  // takum/posit/float16 all land far below bfloat16; takum32 >= float32.
  Rng rng(1004);
  const auto tm =
      laplacian_test_matrix("order_test_1004", stochastic_block(110, 3, 0.3, 0.02, rng));
  ExperimentConfig cfg = fast_config();
  cfg.max_restarts = 100;
  const auto res = run_one(tm,
                           {FormatId::float16, FormatId::bfloat16, FormatId::takum16,
                            FormatId::float32, FormatId::takum32},
                           cfg);
  ASSERT_TRUE(res.reference_ok);
  const auto& f16 = res.runs[0];
  const auto& bf16 = res.runs[1];
  const auto& t16 = res.runs[2];
  const auto& f32 = res.runs[3];
  const auto& t32 = res.runs[4];
  ASSERT_EQ(f16.outcome, RunOutcome::ok);
  ASSERT_EQ(t16.outcome, RunOutcome::ok);
  ASSERT_EQ(f32.outcome, RunOutcome::ok);
  ASSERT_EQ(t32.outcome, RunOutcome::ok);
  if (bf16.outcome == RunOutcome::ok) {
    EXPECT_LT(f16.eigenvalue_error.relative, bf16.eigenvalue_error.relative);
    EXPECT_LT(t16.eigenvalue_error.relative, bf16.eigenvalue_error.relative);
  }
  EXPECT_LT(t32.eigenvalue_error.relative, 10 * f32.eigenvalue_error.relative);
  EXPECT_LT(f32.eigenvalue_error.relative, 1e-4);
}

TEST(Experiment, RunExperimentOverDataset) {
  GeneralCorpusOptions gopts;
  gopts.count = 6;
  gopts.min_n = 24;
  gopts.max_n = 60;
  const auto dataset = build_general_corpus(gopts);
  ASSERT_GE(dataset.size(), 5u);
  const auto results = api::Sweep::over(dataset)
                           .formats({FormatId::float64, FormatId::takum64})
                           .config(fast_config())
                           .run()
                           .results;
  EXPECT_EQ(results.size(), dataset.size());
  std::size_t ok_refs = 0;
  for (const auto& r : results) {
    if (!r.reference_ok) continue;
    ++ok_refs;
    ASSERT_EQ(r.runs.size(), 2u);
    for (const auto& run : r.runs) {
      if (run.outcome == RunOutcome::ok) {
        EXPECT_LT(run.eigenvalue_error.relative, 1e-6);
      }
    }
  }
  EXPECT_GE(ok_refs, 4u);
}

// ---- Distributions ------------------------------------------------------------

std::vector<MatrixResult> synthetic_results() {
  std::vector<MatrixResult> rs;
  for (int i = 0; i < 10; ++i) {
    MatrixResult mr;
    mr.reference_ok = true;
    FormatRun run;
    run.format = FormatId::float32;
    if (i < 6) {
      run.outcome = RunOutcome::ok;
      run.eigenvalue_error.relative = std::pow(10.0, -6.0 + i);  // 1e-6 .. 1e-1
      run.eigenvector_error.relative = std::pow(10.0, -3.0 + i);
    } else if (i < 9) {
      run.outcome = RunOutcome::no_convergence;
    } else {
      run.outcome = RunOutcome::range_exceeded;
    }
    mr.runs.push_back(run);
    rs.push_back(mr);
  }
  return rs;
}

TEST(Distribution, CountsAndPercentiles) {
  const auto rs = synthetic_results();
  const auto d = build_distribution(rs, FormatId::float32, false);
  EXPECT_EQ(d.n_total, 10u);
  EXPECT_EQ(d.n_omega, 3u);
  EXPECT_EQ(d.n_sigma, 1u);
  EXPECT_EQ(d.n_finite(), 6u);
  EXPECT_NEAR(d.percentile(0), -6.0, 1e-12);
  EXPECT_NEAR(d.percentile(50), -1.5, 1.0);  // index 5 -> -1
  EXPECT_TRUE(std::isnan(d.percentile(90)));  // failure tail
  EXPECT_NEAR(d.failure_fraction(), 0.4, 1e-12);
}

TEST(Distribution, SortedSeries) {
  const auto rs = synthetic_results();
  const auto d = build_distribution(rs, FormatId::float32, true);
  for (std::size_t i = 1; i < d.sorted_log10.size(); ++i)
    EXPECT_LE(d.sorted_log10[i - 1], d.sorted_log10[i]);
}

TEST(Distribution, ZeroErrorClampsToFloor) {
  std::vector<MatrixResult> rs(1);
  rs[0].reference_ok = true;
  FormatRun run;
  run.format = FormatId::float64;
  run.outcome = RunOutcome::ok;
  run.eigenvalue_error.relative = 0.0;
  run.eigenvector_error.relative = 0.0;
  rs[0].runs.push_back(run);
  const auto d = build_distribution(rs, FormatId::float64, false);
  ASSERT_EQ(d.n_finite(), 1u);
  EXPECT_DOUBLE_EQ(d.sorted_log10[0], kLogFloor);
}

TEST(Report, CsvWrittenWithFailureFooter) {
  const auto rs = synthetic_results();
  const std::vector<Distribution> series{build_distribution(rs, FormatId::float32, false)};
  const std::string path = "test_out/dist_test.csv";
  write_distribution_csv(path, series);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first, all, line;
  std::getline(in, first);
  EXPECT_EQ(first, "percentile,float32");
  while (std::getline(in, line)) all += line + "\n";
  EXPECT_NE(all.find("omega=3"), std::string::npos);
  EXPECT_NE(all.find("sigma=1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Report, AsciiPanelRenders) {
  const auto rs = synthetic_results();
  const std::vector<Distribution> series{build_distribution(rs, FormatId::float32, false)};
  const std::string art = ascii_panel(series, "test panel");
  EXPECT_NE(art.find("test panel"), std::string::npos);
  EXPECT_NE(art.find("float32"), std::string::npos);
  EXPECT_NE(art.find("omega"), std::string::npos);
}

TEST(Report, SummaryTableRenders) {
  const auto rs = synthetic_results();
  const std::vector<Distribution> series{build_distribution(rs, FormatId::float32, false)};
  const std::string table = summary_table(series, "summary");
  EXPECT_NE(table.find("float32"), std::string::npos);
  EXPECT_NE(table.find("median"), std::string::npos);
}

}  // namespace
}  // namespace mfla

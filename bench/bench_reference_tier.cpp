// bench_reference_tier: two cold sweeps over the same corpus — one with
// the float128-only reference, one with the dd_first tier — timing the
// reference stage of each and reporting the speedup plus the promotion
// rate, as JSON.
//
// A plain executable (no Google Benchmark dependency) running the real
// task-parallel engine with no reference cache, so every reference solve
// is executed in the tier under test. The corpus is well-conditioned
// graph Laplacians on which the dd certification bound holds, so the
// acceptance bar is: zero promotions and a >=2x reference-stage speedup
// from hardware double-double over soft binary128. Both are printed in
// the JSON the CI bench job archives and gates on.
//
// Usage: bench_reference_tier [output.json]
//   MFLA_BENCH_SCALE=0.5 shrinks the corpus (smoke runs).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench_scale.hpp"

namespace {

using namespace mfla;

struct PassResult {
  double total_seconds = 0.0;
  SweepStats stats;
};

PassResult run_pass(const std::vector<TestMatrix>& dataset, const std::vector<FormatId>& formats,
                    const ExperimentConfig& cfg) {
  PassResult pr;
  api::Sweep sweep = api::Sweep::over(dataset);
  sweep.formats(formats).config(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const api::SweepResult r = sweep.run();
  pr.total_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  pr.stats = r.stats;
  for (const auto& mr : r.results) {
    if (!mr.reference_ok)
      std::fprintf(stderr, "warning: reference failed for %s: %s\n", mr.name.c_str(),
                   mr.reference_failure.c_str());
  }
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "bench_reference_tier.json";
  const double scale = benchtool::bench_scale();

  // Well-conditioned Laplacians: eigenvalues of order ||A||, so the dd
  // adequacy bound gamma <= tol |lambda| holds and nothing promotes.
  std::vector<TestMatrix> dataset;
  const auto sizes = {48u, 64u, 96u, 128u};
  std::uint64_t seed = 0xdd7e;
  for (const unsigned base : sizes) {
    const auto n = static_cast<std::uint32_t>(base * scale < 8 ? 8 : base * scale);
    Rng rng(seed++);
    dataset.push_back(make_test_matrix("bench_tier_" + std::to_string(n), "misc", "bench",
                                       graph_laplacian_pipeline(erdos_renyi(n, 0.12, rng))));
  }
  const std::vector<FormatId> formats = {FormatId::bfloat16, FormatId::posit16,
                                         FormatId::takum16};
  ExperimentConfig cfg;
  cfg.nev = 8;
  cfg.buffer = 2;
  cfg.max_restarts = 60;

  std::printf("float128-only pass (%zu matrices x %zu formats)...\n", dataset.size(),
              formats.size());
  cfg.reference_tier = ReferenceTier::f128_only;
  const PassResult f128 = run_pass(dataset, formats, cfg);
  std::printf("dd_first pass...\n");
  cfg.reference_tier = ReferenceTier::dd_first;
  const PassResult dd = run_pass(dataset, formats, cfg);

  const double f128_ref_stage = f128.stats.reference_seconds;
  const double dd_ref_stage = dd.stats.reference_seconds;
  const double ref_speedup = f128_ref_stage / (dd_ref_stage > 1e-9 ? dd_ref_stage : 1e-9);
  const double promotion_rate =
      dd.stats.reference_dd_solves == 0
          ? 0.0
          : static_cast<double>(dd.stats.reference_promotions) /
                static_cast<double>(dd.stats.reference_dd_solves);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"reference_tier\",\n"
               "  \"matrices\": %zu,\n"
               "  \"formats\": %zu,\n"
               "  \"f128_only\": {\n"
               "    \"total_seconds\": %.6f,\n"
               "    \"reference_stage_seconds\": %.6f,\n"
               "    \"reference_solves\": %zu\n"
               "  },\n"
               "  \"dd_first\": {\n"
               "    \"total_seconds\": %.6f,\n"
               "    \"reference_stage_seconds\": %.6f,\n"
               "    \"dd_solves\": %zu,\n"
               "    \"dd_certified\": %zu,\n"
               "    \"promotions\": %zu,\n"
               "    \"dd_seconds\": %.6f,\n"
               "    \"f128_seconds\": %.6f\n"
               "  },\n"
               "  \"promotion_rate\": %.4f,\n"
               "  \"reference_stage_speedup\": %.2f\n"
               "}\n",
               dataset.size(), formats.size(), f128.total_seconds, f128_ref_stage,
               f128.stats.reference_solves, dd.total_seconds, dd_ref_stage,
               dd.stats.reference_dd_solves, dd.stats.reference_dd_certified,
               dd.stats.reference_promotions, dd.stats.reference_dd_seconds,
               dd.stats.reference_f128_seconds, promotion_rate, ref_speedup);
  std::fclose(out);

  std::printf(
      "f128_only: %.2fs total, %.3fs reference stage (%zu solves)\n"
      "dd_first:  %.2fs total, %.3fs reference stage (%zu dd solves, %zu certified, "
      "%zu promoted)\n"
      "reference-stage speedup: %.1fx -> %s\n",
      f128.total_seconds, f128_ref_stage, f128.stats.reference_solves, dd.total_seconds,
      dd_ref_stage, dd.stats.reference_dd_solves, dd.stats.reference_dd_certified,
      dd.stats.reference_promotions, ref_speedup, out_path.c_str());

  if (dd.stats.reference_promotions != 0) {
    std::fprintf(stderr, "FAIL: %zu promotions on a corpus chosen to certify in dd\n",
                 dd.stats.reference_promotions);
    return 1;
  }
  // Enforce the >=2x acceptance bar whenever the f128 stage is large
  // enough to measure reliably (scaled-down smoke corpora can make both
  // stages sub-millisecond noise).
  if (f128_ref_stage > 0.05 && ref_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: dd reference stage only %.1fx faster than float128 (need 2x)\n",
                 ref_speedup);
    return 1;
  }
  return 0;
}

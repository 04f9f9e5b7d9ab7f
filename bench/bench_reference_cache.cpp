// bench_reference_cache: cold-vs-warm sweep over a small corpus, timing the
// float128 reference stage with and without the persistent cache.
//
// A plain executable (no Google Benchmark dependency): it runs the real
// task-parallel engine twice against the same cache directory and reports
// the reference-stage wall-clock of each pass plus the speedup, as JSON.
// The warm pass must execute zero float128 solves — that, and the >=10x
// reference-stage speedup on this corpus, are the cache's acceptance bar
// and are printed in the JSON the CI bench job archives.
//
// Usage: bench_reference_cache [output.json]
//   MFLA_BENCH_SCALE=0.5 shrinks the corpus (smoke runs).
#include <chrono>
#include <cstdio>
#include <filesystem>
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
                    const ExperimentConfig& cfg, ReferenceCache* cache) {
  PassResult pr;
  api::Sweep sweep = api::Sweep::over(dataset);
  sweep.formats(formats).config(cfg).cache(cache);
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
  const std::string out_path = argc > 1 ? argv[1] : "bench_reference_cache.json";
  const double scale = benchtool::bench_scale();

  // A skewed corpus: matrix sizes spread so the reference stage dominates.
  std::vector<TestMatrix> dataset;
  const auto sizes = {48u, 64u, 96u, 128u};
  std::uint64_t seed = 0x9e37;
  for (const unsigned base : sizes) {
    const auto n = static_cast<std::uint32_t>(base * scale < 8 ? 8 : base * scale);
    Rng rng(seed++);
    dataset.push_back(make_test_matrix("bench_ref_" + std::to_string(n), "misc", "bench",
                                       graph_laplacian_pipeline(erdos_renyi(n, 0.12, rng))));
  }
  const std::vector<FormatId> formats = {FormatId::bfloat16, FormatId::posit16,
                                         FormatId::takum16};
  ExperimentConfig cfg;
  cfg.nev = 8;
  cfg.buffer = 2;
  cfg.max_restarts = 60;

  const std::string cache_dir = "out/bench_refcache";
  std::filesystem::remove_all(cache_dir);
  ReferenceCache cache(cache_dir);

  std::printf("cold pass (%zu matrices x %zu formats)...\n", dataset.size(), formats.size());
  const PassResult cold = run_pass(dataset, formats, cfg, &cache);
  std::printf("warm pass...\n");
  const PassResult warm = run_pass(dataset, formats, cfg, &cache);

  // Warm reference stage = the time spent serving cache hits (the warm
  // pass executes zero solves, so reference_seconds is exactly 0 there).
  const double warm_ref_stage =
      warm.stats.reference_seconds + warm.stats.reference_cache_seconds;
  const double cold_ref_stage =
      cold.stats.reference_seconds + cold.stats.reference_cache_seconds;
  const double ref_speedup = cold_ref_stage / (warm_ref_stage > 1e-9 ? warm_ref_stage : 1e-9);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"reference_cache\",\n"
               "  \"matrices\": %zu,\n"
               "  \"formats\": %zu,\n"
               "  \"cold\": {\n"
               "    \"total_seconds\": %.6f,\n"
               "    \"reference_stage_seconds\": %.6f,\n"
               "    \"reference_solves\": %zu,\n"
               "    \"cache_hits\": %zu\n"
               "  },\n"
               "  \"warm\": {\n"
               "    \"total_seconds\": %.6f,\n"
               "    \"reference_stage_seconds\": %.6f,\n"
               "    \"reference_solves\": %zu,\n"
               "    \"cache_hits\": %zu\n"
               "  },\n"
               "  \"reference_stage_speedup\": %.2f,\n"
               "  \"total_speedup\": %.2f\n"
               "}\n",
               dataset.size(), formats.size(), cold.total_seconds, cold_ref_stage,
               cold.stats.reference_solves, cold.stats.reference_cache_hits, warm.total_seconds,
               warm_ref_stage, warm.stats.reference_solves, warm.stats.reference_cache_hits,
               ref_speedup,
               cold.total_seconds / (warm.total_seconds > 1e-9 ? warm.total_seconds : 1e-9));
  std::fclose(out);

  std::printf(
      "cold: %.2fs total, %.3fs reference stage (%zu solves)\n"
      "warm: %.2fs total, %.3fs reference stage (%zu solves, %zu cache hits)\n"
      "reference-stage speedup: %.1fx -> %s\n",
      cold.total_seconds, cold_ref_stage, cold.stats.reference_solves, warm.total_seconds,
      warm_ref_stage, warm.stats.reference_solves, warm.stats.reference_cache_hits, ref_speedup,
      out_path.c_str());

  if (warm.stats.reference_solves != 0) {
    std::fprintf(stderr, "FAIL: warm pass executed %zu reference solves (expected 0)\n",
                 warm.stats.reference_solves);
    return 1;
  }
  // Enforce the >=10x acceptance bar whenever the cold stage is large
  // enough to measure reliably (scaled-down smoke corpora can make both
  // stages sub-millisecond noise).
  if (cold_ref_stage > 0.01 && ref_speedup < 10.0) {
    std::fprintf(stderr, "FAIL: warm reference stage only %.1fx faster than cold (need 10x)\n",
                 ref_speedup);
    return 1;
  }
  return 0;
}

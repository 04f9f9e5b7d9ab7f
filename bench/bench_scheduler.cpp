// Microbenchmark: scheduling granularity of the experiment engine.
//
// Compares the former design (parallel across matrices only: one task per
// matrix runs its reference solve plus every format sequentially) against
// the task-parallel engine (one task per (matrix, format) with the
// reference as a per-matrix prerequisite) on a deliberately skewed corpus —
// one large matrix plus several small ones. With matrix granularity the
// worker that draws the large matrix serializes its whole format sweep
// while the other workers idle; with task granularity its format runs fan
// out as soon as the reference lands.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "api/sweep.hpp"
#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace mfla;

std::vector<TestMatrix> skewed_corpus() {
  std::vector<TestMatrix> ds;
  Rng big_rng(7001);
  ds.push_back(make_test_matrix("sched_big", "social", "soc",
                                graph_laplacian_pipeline(erdos_renyi(150, 0.08, big_rng))));
  for (std::uint64_t k = 0; k < 6; ++k) {
    Rng rng(7100 + k);
    ds.push_back(make_test_matrix("sched_small_" + std::to_string(k), "social", "soc",
                                  graph_laplacian_pipeline(erdos_renyi(36, 0.2, rng))));
  }
  return ds;
}

std::vector<FormatId> bench_formats() {
  return {FormatId::float16, FormatId::bfloat16, FormatId::posit16, FormatId::takum16};
}

ExperimentConfig bench_config() {
  ExperimentConfig cfg;
  cfg.nev = 6;
  cfg.buffer = 2;
  cfg.max_restarts = 60;
  cfg.reference_max_restarts = 150;
  return cfg;
}

/// One matrix end to end on the calling thread: its tiered reference
/// solve, then every format in order.
MatrixResult solve_matrix_serially(const TestMatrix& tm, const std::vector<FormatId>& formats,
                                   const ExperimentConfig& cfg) {
  MatrixResult res;
  res.name = tm.name;
  Rng rng(tm.name, cfg.seed);
  const std::vector<double> start = rng.unit_vector(tm.n());
  const ReferenceSolution ref = compute_reference_tiered(tm, cfg, start).solution;
  res.reference_ok = ref.ok;
  if (!ref.ok) return res;
  for (const FormatId id : formats) res.runs.push_back(run_format_dynamic(tm, ref, cfg, start, id));
  return res;
}

/// The old engine, reconstructed: parallelism across matrices only.
void BM_MatrixGranularity(benchmark::State& state) {
  const auto ds = skewed_corpus();
  const auto formats = bench_formats();
  const auto cfg = bench_config();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<MatrixResult> results(ds.size());
    {
      ThreadPool pool(threads);
      TaskGroup group(pool);
      for (std::size_t i = 0; i < ds.size(); ++i) {
        group.submit([&results, &ds, &formats, &cfg, i] {
          results[i] = solve_matrix_serially(ds[i], formats, cfg);
        });
      }
      group.wait();
    }
    benchmark::DoNotOptimize(results.data());
  }
}

/// The task-parallel engine: (matrix, format) granularity with cached
/// per-matrix references.
void BM_TaskGranularity(benchmark::State& state) {
  api::Sweep sweep = api::Sweep::over(skewed_corpus());
  sweep.formats(bench_formats())
      .config(bench_config())
      .threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto results = sweep.run().results;
    benchmark::DoNotOptimize(results.data());
  }
}

BENCHMARK(BM_MatrixGranularity)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK(BM_TaskGranularity)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

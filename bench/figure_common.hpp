// Shared driver for the figure-reproduction harnesses (Figures 1-5).
//
// For a given dataset it runs the full multi-format experiment and emits,
// per bit width (8/16/32/64) and metric (eigenvalue/eigenvector), exactly
// the series the paper plots: the cumulative distribution of log10 relative
// errors with the ∞ω/∞σ tails — as CSV under out/, an ASCII panel, and a
// summary table used by docs/EXPERIMENTS.md.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench_scale.hpp"

namespace mfla::benchtool {

inline void run_figure(const std::string& figure_id, const std::string& title,
                       const std::vector<TestMatrix>& dataset) {
  std::printf("=== %s: %s ===\n", figure_id.c_str(), title.c_str());
  std::printf("dataset: %zu matrices", dataset.size());
  {
    std::size_t nmin = SIZE_MAX, nmax = 0, nnz = 0;
    for (const auto& t : dataset) {
      nmin = std::min(nmin, t.n());
      nmax = std::max(nmax, t.n());
      nnz += t.nnz();
    }
    if (!dataset.empty()) {
      std::printf(" (n in [%zu, %zu], total nnz %zu)", nmin, nmax, nnz);
    }
  }
  std::printf("\n\n");

  const api::SweepResult sweep = api::Sweep::over(dataset)
                                     .formats(api::evaluation_formats())
                                     .nev(10)
                                     .buffer(2)
                                     .restarts(60)
                                     .reference_restarts(150)
                                     .run();
  const auto& results = sweep.results;
  const double secs = sweep.elapsed_seconds;

  std::size_t ref_fail = 0;
  for (const auto& r : results) ref_fail += !r.reference_ok;
  std::printf("experiment wall time: %.1f s; reference failures: %zu/%zu\n\n", secs, ref_fail,
              results.size());

  // Raw per-run data (re-bin offline with read_results_csv).
  write_results_csv("out/" + figure_id + "_raw.csv", results);

  for (const int bits : {8, 16, 32, 64}) {
    const PanelDistributions panel = build_panel(results, bits);
    char sub[160];
    std::snprintf(sub, sizeof sub, "%s (%c) %d bits — eigenvalue relative errors",
                  figure_id.c_str(), static_cast<char>('a' + (bits == 8 ? 0 : bits == 16 ? 1 : bits == 32 ? 2 : 3)),
                  bits);
    std::printf("%s", ascii_panel(panel.eigenvalues, sub).c_str());
    std::printf("%s\n", summary_table(panel.eigenvalues, "eigenvalues").c_str());
    std::snprintf(sub, sizeof sub, "%s %d bits — eigenvector relative errors", figure_id.c_str(),
                  bits);
    std::printf("%s", ascii_panel(panel.eigenvectors, sub).c_str());
    std::printf("%s\n", summary_table(panel.eigenvectors, "eigenvectors").c_str());

    char path[256];
    std::snprintf(path, sizeof path, "out/%s_%dbit_eigenvalues.csv", figure_id.c_str(), bits);
    write_distribution_csv(path, panel.eigenvalues);
    std::snprintf(path, sizeof path, "out/%s_%dbit_eigenvectors.csv", figure_id.c_str(), bits);
    write_distribution_csv(path, panel.eigenvectors);
  }
  std::printf("CSV series written to out/%s_*.csv\n\n", figure_id.c_str());
}

}  // namespace mfla::benchtool

// Ablation A3: posit exponent-size (es) sweep.
//
// The Posit Standard (2022) fixed es = 2 for every width; earlier drafts
// used es = 0 (posit8), 1 (posit16), 2 (posit32), 3 (posit64). This
// ablation quantifies how es trades dynamic range against near-one
// precision in the eigenvalue pipeline.
#include <cstdio>

#include "api/api.hpp"
#include "bench_scale.hpp"

namespace {

using namespace mfla;

template <typename T>
void run_es(const char* label, const std::vector<TestMatrix>& corpus) {
  ExperimentConfig cfg;
  std::vector<double> errs;
  std::size_t omega = 0, sigma = 0;
  for (const auto& tm : corpus) {
    Rng rng(tm.name, cfg.seed);
    const auto start = rng.unit_vector(tm.n());
    const auto ref = compute_reference(tm, cfg, start);
    if (!ref.ok) continue;
    const auto run = run_format<T>(tm, ref, cfg, start, FormatId::posit16);
    switch (run.outcome) {
      case RunOutcome::ok:
        errs.push_back(std::log10(std::max(run.eigenvalue_error.relative, 1e-40)));
        break;
      case RunOutcome::no_convergence:
        ++omega;
        break;
      case RunOutcome::range_exceeded:
        ++sigma;
        break;
    }
  }
  std::sort(errs.begin(), errs.end());
  auto pct = [&errs](double p) {
    if (errs.empty()) return std::nan("");
    return errs[static_cast<std::size_t>(p * (static_cast<double>(errs.size()) - 1) + 0.5)];
  };
  std::printf("%-14s %8.2f %8.2f %8.2f %6zu %6zu\n", label, pct(0.25), pct(0.5), pct(0.75), omega,
              sigma);
}

}  // namespace

int main() {
  using benchtool::scaled;
  GeneralCorpusOptions gopts;
  gopts.count = scaled(24);
  const auto general = build_general_corpus(gopts);
  GraphCorpusOptions gr;
  gr.counts = {scaled(8), scaled(6), scaled(6), 0};
  gr.max_n = 200;
  const auto graphs = build_graph_corpus(gr);

  std::printf("=== Ablation A3: posit es sweep (log10 eigenvalue rel. error) ===\n\n");
  std::printf("-- general matrices (%zu) --\n", general.size());
  std::printf("%-14s %8s %8s %8s %6s %6s\n", "format", "p25", "median", "p75", "omega", "sigma");
  run_es<Posit<16, 0>>("posit16 es=0", general);
  run_es<Posit<16, 1>>("posit16 es=1", general);
  run_es<Posit<16, 2>>("posit16 es=2", general);
  run_es<Posit<16, 3>>("posit16 es=3", general);
  run_es<Posit<32, 0>>("posit32 es=0", general);
  run_es<Posit<32, 1>>("posit32 es=1", general);
  run_es<Posit<32, 2>>("posit32 es=2", general);
  run_es<Posit<32, 3>>("posit32 es=3", general);

  std::printf("\n-- graph Laplacians (%zu) --\n", graphs.size());
  std::printf("%-14s %8s %8s %8s %6s %6s\n", "format", "p25", "median", "p75", "omega", "sigma");
  run_es<Posit<16, 0>>("posit16 es=0", graphs);
  run_es<Posit<16, 1>>("posit16 es=1", graphs);
  run_es<Posit<16, 2>>("posit16 es=2", graphs);
  run_es<Posit<16, 3>>("posit16 es=3", graphs);

  std::printf(
      "\nReading: small es buys fraction bits near one (good for Laplacians,\n"
      "entries in [-1,1]) but shrinks dynamic range (bad for general matrices,\n"
      "where es=0/1 runs lose matrices to omega/sigma failures).\n");
  return 0;
}

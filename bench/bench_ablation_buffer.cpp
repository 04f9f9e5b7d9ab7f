// Ablation A5: the paper's eigenvalue_buffer_count (§2.2, "novel method").
//
// With tightly clustered eigenvalues, low-precision runs permute pairs near
// the nev cut-off. Without buffer pairs, a vector that slid from position
// 10 to 11 scores as a catastrophic error even though it is accurate.
// buffer = 2 (the paper's choice) absorbs this. This harness measures
// median eigenvector errors with buffer = 0 vs 2 on a cluster-heavy corpus.
#include <cstdio>

#include "api/api.hpp"
#include "bench_scale.hpp"

namespace {

using namespace mfla;

std::vector<TestMatrix> clustered_corpus(std::size_t count) {
  // Complete graphs, repeated components and low-rank matrices: spectra
  // with exact multiplicities and tight clusters around the nev boundary.
  std::vector<TestMatrix> out;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng("buffer_ablation", i);
    CooMatrix adj;
    switch (i % 3) {
      case 0:
        adj = complete(18 + static_cast<std::uint32_t>(rng.uniform_index(10)));
        break;
      case 1: {
        const CooMatrix unit = complete(7);
        CooMatrix u = unit;
        for (int c = 0; c < 3; ++c) u = disjoint_union(u, unit);
        adj = disjoint_union(u, path(20));
        break;
      }
      default:
        adj = stochastic_block(90, 3, 0.35, 0.01, rng);
        break;
    }
    out.push_back(make_test_matrix("cluster_" + std::to_string(i), "misc", "cluster",
                                   graph_laplacian_pipeline(adj)));
  }
  return out;
}

void run_buffer(FormatId id, const std::vector<TestMatrix>& corpus, std::size_t buffer) {
  ExperimentConfig cfg;
  cfg.buffer = buffer;
  cfg.max_restarts = 80;
  std::vector<double> vec_errs;
  std::size_t omega = 0;
  for (const auto& tm : corpus) {
    Rng rng(tm.name, cfg.seed);
    const auto start = rng.unit_vector(tm.n());
    const auto ref = compute_reference(tm, cfg, start);
    if (!ref.ok) continue;
    const auto run = run_format_dynamic(tm, ref, cfg, start, id);
    if (run.outcome == RunOutcome::ok) {
      vec_errs.push_back(std::log10(std::max(run.eigenvector_error.relative, 1e-40)));
    } else {
      ++omega;
    }
  }
  std::sort(vec_errs.begin(), vec_errs.end());
  auto pct = [&vec_errs](double p) {
    if (vec_errs.empty()) return std::nan("");
    return vec_errs[static_cast<std::size_t>(p * (static_cast<double>(vec_errs.size()) - 1) +
                                             0.5)];
  };
  std::printf("%-22s buffer=%zu %8.2f %8.2f %8.2f %6zu\n", format_info(id).name.c_str(), buffer,
              pct(0.25), pct(0.5), pct(0.75), omega);
}

}  // namespace

int main() {
  using benchtool::scaled;
  const auto corpus = clustered_corpus(scaled(15));
  std::printf("=== Ablation A5: eigenvalue buffer count (paper §2.2) ===\n");
  std::printf("clustered-spectrum corpus: %zu matrices\n\n", corpus.size());
  std::printf("%-22s %-9s %8s %8s %8s %6s\n", "format", "", "p25", "median", "p75", "omega");
  for (const FormatId id : {FormatId::float16, FormatId::posit16, FormatId::float32}) {
    run_buffer(id, corpus, 0);
    run_buffer(id, corpus, 2);
  }
  std::printf(
      "\nReading: log10 eigenvector relative errors. Without the buffer, cluster\n"
      "permutations at the nev boundary inflate apparent errors; buffer = 2\n"
      "recovers the fair comparison (the paper's rationale for the method).\n");
  return 0;
}

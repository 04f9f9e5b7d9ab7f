// matrix_market_eigs: load a symmetric sparse matrix from a Matrix Market
// file (or an edge-list graph, converted to its normalized Laplacian) and
// compare the 10 largest eigenpairs across formats.
//
// Usage:
//   matrix_market_eigs matrix.mtx [nev]
//   matrix_market_eigs graph.edges [nev]     # builds the Laplacian first
//
// Without arguments a small built-in demo matrix is used.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/api.hpp"

namespace {

mfla::CooMatrix demo_matrix() {
  // 1-D Laplacian stencil, the classic symmetric test matrix.
  mfla::CooMatrix a(64, 64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    a.add(i, i, 2.0);
    if (i + 1 < 64) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfla;

  CooMatrix coo;
  std::string name = "demo_stencil";
  try {
    if (argc > 1) {
      name = argv[1];
      coo = read_matrix_file(name);  // a non-symmetric .mtx becomes (A + Aᵀ)/2
    } else {
      coo = demo_matrix();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  TestMatrix tm = make_test_matrix(name, "general", "user", coo);
  std::printf("matrix '%s': n = %zu, nnz = %zu\n\n", name.c_str(), tm.n(), tm.nnz());

  const std::size_t nev = (argc > 2) ? static_cast<std::size_t>(std::atoi(argv[2])) : 10;
  const std::size_t buffer = 2;
  if (tm.n() < nev + buffer + 4) {
    std::fprintf(stderr, "matrix too small for nev=%zu\n", nev);
    return 1;
  }

  // One-matrix sweep across the full format lineup (keys resolved by the
  // registry — same strings the mfla_experiment CLI accepts).
  api::SweepResult sweep;
  try {
    sweep = api::Sweep::over({tm})
                .formats("e4m3,e5m2,p8,t8,f16,bf16,p16,t16,f32,p32,t32,f64,p64,t64")
                .nev(nev)
                .buffer(buffer)
                .restarts(100)
                .run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const MatrixResult& res = sweep.results.front();
  if (!res.reference_ok) {
    std::fprintf(stderr, "reference solve failed: %s\n", res.reference_failure.c_str());
    return 1;
  }

  std::printf("%-12s %-10s %12s %12s\n", "format", "outcome", "eig rel.err", "vec rel.err");
  for (const auto& run : res.runs) {
    const char* outcome = run.outcome == RunOutcome::ok               ? "ok"
                          : run.outcome == RunOutcome::no_convergence ? "inf-omega"
                                                                      : "inf-sigma";
    if (run.outcome == RunOutcome::ok) {
      std::printf("%-12s %-10s %12.3e %12.3e\n", format_info(run.format).name.c_str(), outcome,
                  run.eigenvalue_error.relative, run.eigenvector_error.relative);
    } else {
      std::printf("%-12s %-10s %12s %12s\n", format_info(run.format).name.c_str(), outcome, "-",
                  "-");
    }
  }
  return 0;
}

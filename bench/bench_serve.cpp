// bench_serve: serving-layer overhead and shared-cache leverage for the
// sweep daemon (docs/SERVING.md).
//
// A plain executable (no Google Benchmark dependency): it starts an
// in-process serve::Server on a Unix socket, runs one cold tenant sweep
// (populating the server-side reference cache), then a concurrent batch
// of tenants submitting the same spec, and reports wall-clock numbers as
// JSON. Two self-gates make it an acceptance harness rather than just a
// stopwatch: every concurrent tenant's reconstructed CSV must be
// byte-identical to the direct api::Sweep CSV for the spec (serving is
// bit-transparent), and the concurrent batch must serve its references
// from the shared cache (zero cold reference solves after warmup).
//
// Usage: bench_serve [output.json]
//   MFLA_BENCH_SCALE=0.5 shrinks the corpus (smoke runs).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "bench_scale.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace mfla;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string csv_bytes(const std::vector<MatrixResult>& results, const std::string& tag) {
  const std::string path = "bench_out/serve_" + tag + "_raw.csv";
  write_results_csv(path, results);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::filesystem::remove(path);
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "bench_serve.json";
  const double scale = benchtool::bench_scale();
  const std::size_t count = std::max<std::size_t>(1, static_cast<std::size_t>(4 * scale));
  constexpr int kTenants = 4;

  serve::SweepRequest spec;
  spec.corpus = "general";
  spec.count = count;
  spec.formats = "f16,p16,t16";
  spec.nev = 4;
  spec.buffer = 2;
  spec.restarts = 40;

  std::filesystem::remove_all("bench_out/serve");
  std::filesystem::create_directories("bench_out/serve");

  serve::ServerOptions sopts;
  sopts.socket_path = "bench_out/serve/bench.sock";
  sopts.state_dir = "bench_out/serve/state";
  sopts.limits.max_active = kTenants;
  sopts.limits.max_per_tenant = kTenants;
  serve::Server server(sopts);
  std::thread loop([&server] { server.serve(); });

  serve::ClientOptions copts;
  copts.socket_path = sopts.socket_path;

  // Baseline: the direct in-process sweep this daemon must reproduce.
  GeneralCorpusOptions gopts;
  gopts.count = count;
  auto t0 = std::chrono::steady_clock::now();
  const api::SweepResult direct = api::Sweep::over(build_general_corpus(gopts))
                                      .formats(spec.formats)
                                      .nev(spec.nev)
                                      .buffer(spec.buffer)
                                      .restarts(spec.restarts)
                                      .run();
  const double direct_seconds = seconds_since(t0);
  const std::string expected_csv = csv_bytes(direct.results, "direct");

  // Cold pass: one tenant, empty server-side cache — pays the references.
  spec.tenant = "cold";
  t0 = std::chrono::steady_clock::now();
  const serve::ClientResult cold = serve::run_sweep(copts, spec);
  const double cold_seconds = seconds_since(t0);
  if (cold.status != serve::ClientResult::Status::ok) {
    std::fprintf(stderr, "FAIL: cold sweep did not complete: %s\n", cold.error.c_str());
    server.request_drain();
    loop.join();
    return 1;
  }
  const std::uint64_t cold_misses = server.stats_snapshot().cache.misses;

  // Warm concurrent batch: every tenant's references come from the cache.
  std::vector<serve::ClientResult> warm(kTenants);
  std::vector<std::thread> tenants;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTenants; ++i) {
    tenants.emplace_back([&, i] {
      serve::SweepRequest req = spec;
      req.tenant = "tenant" + std::to_string(i);
      warm[i] = serve::run_sweep(copts, req);
    });
  }
  for (auto& t : tenants) t.join();
  const double warm_batch_seconds = seconds_since(t0);

  server.request_drain();
  loop.join();
  const serve::ServerStats stats = server.stats_snapshot();

  bool ok = true;
  for (int i = 0; i < kTenants; ++i) {
    if (warm[i].status != serve::ClientResult::Status::ok) {
      std::fprintf(stderr, "FAIL: tenant %d did not complete: %s\n", i, warm[i].error.c_str());
      ok = false;
      continue;
    }
    if (csv_bytes(warm[i].results, "tenant" + std::to_string(i)) != expected_csv) {
      std::fprintf(stderr, "FAIL: tenant %d CSV differs from the direct sweep\n", i);
      ok = false;
    }
  }
  // Gate: the concurrent batch added no cache misses — all references for
  // the warm tenants were served from the shared cache.
  if (stats.cache.misses != cold_misses) {
    std::fprintf(stderr, "FAIL: warm batch recomputed %llu references (cache not shared)\n",
                 static_cast<unsigned long long>(stats.cache.misses - cold_misses));
    ok = false;
  }

  const double per_sweep_warm = warm_batch_seconds / kTenants;
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"serve\",\n"
               "  \"matrices\": %zu,\n"
               "  \"tenants\": %d,\n"
               "  \"direct_seconds\": %.6f,\n"
               "  \"cold_served_seconds\": %.6f,\n"
               "  \"warm_batch_seconds\": %.6f,\n"
               "  \"warm_seconds_per_sweep\": %.6f,\n"
               "  \"serving_overhead_vs_direct\": %.6f,\n"
               "  \"cache_hits\": %llu,\n"
               "  \"cache_misses\": %llu,\n"
               "  \"gates_ok\": %s\n"
               "}\n",
               count, kTenants, direct_seconds, cold_seconds, warm_batch_seconds, per_sweep_warm,
               cold_seconds - direct_seconds, static_cast<unsigned long long>(stats.cache.hits),
               static_cast<unsigned long long>(stats.cache.misses), ok ? "true" : "false");
  std::fclose(out);
  std::printf("bench_serve: direct %.2fs, cold served %.2fs, warm batch of %d %.2fs "
              "(%.2fs/sweep), cache %llu hits / %llu misses -> %s\n",
              direct_seconds, cold_seconds, kTenants, warm_batch_seconds, per_sweep_warm,
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses), ok ? "ok" : "FAILED");
  std::filesystem::remove_all("bench_out/serve");
  return ok ? 0 : 1;
}

// bench_failpoint_overhead: proves the failpoint fast path is free.
//
// Failpoints are compiled into all builds (docs/ROBUSTNESS.md), so the
// unarmed check — one relaxed atomic load — must cost nothing measurable
// at the call sites. This harness times dot and spmv call loops three
// ways: no check at all, the unarmed MFLA_FAILPOINT check (the shipped
// configuration), and with an unrelated failpoint armed (the slow path:
// a registry lookup per call). A plain executable reporting JSON, gated
// two ways: tools/bench_compare.py diffs the timings against the
// committed baseline, and the binary itself fails if the unarmed loop
// exceeds the plain loop by more than the noise margin.
//
// Usage: bench_failpoint_overhead [output.json]
//   MFLA_BENCH_SCALE=0.5 shrinks the iteration counts (smoke runs).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_scale.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfla;

constexpr double kNoiseMargin = 1.25;  // unarmed may not cost >25% over plain
constexpr int kRepetitions = 7;        // best-of: min wall-clock per variant

// The kernels are deliberately hand-rolled: the subject under test is the
// per-call check, so the loop bodies just need realistic, optimizer-proof
// work of the sweep engine's flavor (dense dot, CSR spmv). noinline keeps
// the kernel code byte-identical across variants — otherwise the extra
// call changes inlining/layout and the diff measures codegen, not the
// check.

#if defined(__GNUC__) || defined(__clang__)
#define BENCH_NOINLINE __attribute__((noinline))
#else
#define BENCH_NOINLINE
#endif

BENCH_NOINLINE double dot(const std::vector<double>& x, const std::vector<double>& y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

struct Csr {
  std::vector<std::size_t> row_ptr;
  std::vector<std::size_t> col;
  std::vector<double> val;
  std::size_t n = 0;
};

Csr make_csr(std::size_t n, std::size_t per_row, Rng& rng) {
  Csr m;
  m.n = n;
  m.row_ptr.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < per_row; ++k) {
      m.col.push_back(rng.uniform_index(n));
      m.val.push_back(rng.uniform() - 0.5);
    }
    m.row_ptr.push_back(m.col.size());
  }
  return m;
}

BENCH_NOINLINE void spmv(const Csr& m, const std::vector<double>& x, std::vector<double>& y) {
  for (std::size_t i = 0; i < m.n; ++i) {
    double acc = 0.0;
    for (std::size_t k = m.row_ptr[i]; k < m.row_ptr[i + 1]; ++k)
      acc += m.val[k] * x[m.col[k]];
    y[i] = acc;
  }
}

/// Best-of-kRepetitions wall-clock of `iters` calls to `body`.
template <typename F>
double time_loop(int iters, F&& body) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best;
}

struct Variant {
  double plain_seconds;
  double unarmed_seconds;
  double armed_other_seconds;
};

volatile double g_sink;  // defeats dead-code elimination across variants

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "bench_failpoint_overhead.json";
  const double scale = benchtool::bench_scale();

  Rng rng(0xfa17);
  const std::size_t n = 1024;
  std::vector<double> x(n), y(n), z(n);
  for (auto& v : x) v = rng.uniform() - 0.5;
  for (auto& v : y) v = rng.uniform() - 0.5;
  const Csr m = make_csr(512, 8, rng);
  std::vector<double> sx(m.n, 1.0);

  const int dot_iters = static_cast<int>(200000 * scale) + 1;
  const int spmv_iters = static_cast<int>(50000 * scale) + 1;

  failpoint::disarm_all();
  Variant d{}, s{};
  d.plain_seconds = time_loop(dot_iters, [&] { g_sink = dot(x, y); });
  s.plain_seconds = time_loop(spmv_iters, [&] {
    spmv(m, sx, z);
    g_sink = z[0];
  });
  d.unarmed_seconds = time_loop(dot_iters, [&] {
    (void)MFLA_FAILPOINT("bench.dot");
    g_sink = dot(x, y);
  });
  s.unarmed_seconds = time_loop(spmv_iters, [&] {
    (void)MFLA_FAILPOINT("bench.spmv");
    spmv(m, sx, z);
    g_sink = z[0];
  });

  // Arm an unrelated point: every check now takes the registry-lookup slow
  // path. Informational — this is the cost of running *with* injection on.
  failpoint::arm_from_spec("bench.unrelated=error(5)@1000000000");
  d.armed_other_seconds = time_loop(dot_iters, [&] {
    (void)MFLA_FAILPOINT("bench.dot");
    g_sink = dot(x, y);
  });
  s.armed_other_seconds = time_loop(spmv_iters, [&] {
    (void)MFLA_FAILPOINT("bench.spmv");
    spmv(m, sx, z);
    g_sink = z[0];
  });
  failpoint::disarm_all();

  const double d_ratio = d.unarmed_seconds / d.plain_seconds;
  const double s_ratio = s.unarmed_seconds / s.plain_seconds;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"failpoint_overhead\",\n"
               "  \"dot\": {\n"
               "    \"plain_seconds\": %.6f,\n"
               "    \"unarmed_seconds\": %.6f,\n"
               "    \"armed_other_seconds\": %.6f,\n"
               "    \"unarmed_overhead_ratio\": %.4f\n"
               "  },\n"
               "  \"spmv\": {\n"
               "    \"plain_seconds\": %.6f,\n"
               "    \"unarmed_seconds\": %.6f,\n"
               "    \"armed_other_seconds\": %.6f,\n"
               "    \"unarmed_overhead_ratio\": %.4f\n"
               "  }\n"
               "}\n",
               d.plain_seconds, d.unarmed_seconds, d.armed_other_seconds, d_ratio,
               s.plain_seconds, s.unarmed_seconds, s.armed_other_seconds, s_ratio);
  std::fclose(out);

  std::printf(
      "dot : plain %.3fs, unarmed %.3fs (%.2fx), armed-other %.3fs\n"
      "spmv: plain %.3fs, unarmed %.3fs (%.2fx), armed-other %.3fs\n-> %s\n",
      d.plain_seconds, d.unarmed_seconds, d_ratio, d.armed_other_seconds, s.plain_seconds,
      s.unarmed_seconds, s_ratio, s.armed_other_seconds, out_path.c_str());

  // Self-gate only when the loops are long enough to measure reliably.
  if (d.plain_seconds > 0.05 && d_ratio > kNoiseMargin) {
    std::fprintf(stderr, "FAIL: unarmed failpoint check costs %.0f%% on dot (noise margin %.0f%%)\n",
                 (d_ratio - 1.0) * 100.0, (kNoiseMargin - 1.0) * 100.0);
    return 1;
  }
  if (s.plain_seconds > 0.05 && s_ratio > kNoiseMargin) {
    std::fprintf(stderr,
                 "FAIL: unarmed failpoint check costs %.0f%% on spmv (noise margin %.0f%%)\n",
                 (s_ratio - 1.0) * 100.0, (kNoiseMargin - 1.0) * 100.0);
    return 1;
  }
  return 0;
}

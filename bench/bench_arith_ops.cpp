// Microbenchmark A1: per-operation cost of every emulated format.
//
// The paper deliberately excludes execution time from its evaluation (all
// formats are software-emulated there too); this harness documents the
// emulation costs of *this* library so users can size experiments. The
// OnGrid<T> rows are the resident arithmetic the solvers run the 16- to
// 64-bit formats in (arith/on_grid.hpp), next to the exact-engine rows of
// the same format.
#include <benchmark/benchmark.h>

#include <vector>

#include "arith/format_registry.hpp"
#include "arith/on_grid.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfla;

template <typename T>
std::vector<T> random_values(std::size_t n, double lo_exp, double hi_exp, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(NumTraits<T>::from_double(rng.normal() * rng.log_uniform(lo_exp, hi_exp)));
  }
  return out;
}

template <typename T>
void BM_Add(benchmark::State& state) {
  const auto a = random_values<T>(1024, -2, 2, 1);
  const auto b = random_values<T>(1024, -2, 2, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a[i & 1023] + b[i & 1023]);
    ++i;
  }
}

template <typename T>
void BM_Mul(benchmark::State& state) {
  const auto a = random_values<T>(1024, -2, 2, 3);
  const auto b = random_values<T>(1024, -2, 2, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a[i & 1023] * b[i & 1023]);
    ++i;
  }
}

template <typename T>
void BM_Div(benchmark::State& state) {
  const auto a = random_values<T>(1024, -2, 2, 5);
  auto b = random_values<T>(1024, 0, 2, 6);
  for (auto& v : b) {
    if (NumTraits<T>::to_double(v) == 0.0) v = NumTraits<T>::from_double(1.0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a[i & 1023] / b[i & 1023]);
    ++i;
  }
}

template <typename T>
T generic_sqrt(T x) {
  // The using-declaration shadows ::sqrt; ADL finds the hidden friends.
  using mfla::sqrt;
  return sqrt(x);
}

template <typename T>
void BM_Sqrt(benchmark::State& state) {
  auto a = random_values<T>(1024, -2, 2, 7);
  for (auto& v : a) v = NumTraits<T>::from_double(std::abs(NumTraits<T>::to_double(v)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generic_sqrt(a[i & 1023]));
    ++i;
  }
}

template <typename T>
void BM_FromDouble(benchmark::State& state) {
  Rng rng(8);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.normal() * rng.log_uniform(-2, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NumTraits<T>::from_double(xs[i & 1023]));
    ++i;
  }
}

#define MFLA_BENCH_FORMAT(T)                      \
  BENCHMARK_TEMPLATE(BM_Add, T);                  \
  BENCHMARK_TEMPLATE(BM_Mul, T);                  \
  BENCHMARK_TEMPLATE(BM_Div, T);                  \
  BENCHMARK_TEMPLATE(BM_Sqrt, T);                 \
  BENCHMARK_TEMPLATE(BM_FromDouble, T)

#define MFLA_BENCH_RESIDENT(T)                    \
  MFLA_BENCH_FORMAT(T);                           \
  BENCHMARK_TEMPLATE(BM_Add, OnGrid<T>);          \
  BENCHMARK_TEMPLATE(BM_Mul, OnGrid<T>);          \
  BENCHMARK_TEMPLATE(BM_Div, OnGrid<T>);          \
  BENCHMARK_TEMPLATE(BM_Sqrt, OnGrid<T>)

MFLA_BENCH_FORMAT(OFP8E4M3);
MFLA_BENCH_RESIDENT(Float16);
MFLA_BENCH_RESIDENT(BFloat16);
MFLA_BENCH_RESIDENT(Posit16);
MFLA_BENCH_RESIDENT(Takum16);
MFLA_BENCH_RESIDENT(Posit32);
MFLA_BENCH_RESIDENT(Takum32);
MFLA_BENCH_RESIDENT(Posit64);
MFLA_BENCH_RESIDENT(Takum64);
MFLA_BENCH_FORMAT(float);
MFLA_BENCH_FORMAT(double);
MFLA_BENCH_FORMAT(Quad);

}  // namespace

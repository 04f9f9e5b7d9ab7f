// Microbenchmark A2: throughput of the IRAM's inner kernels (dot, norm,
// axpy, sparse matvec, Gram–Schmidt, basis update, full Arnoldi step) per
// format and problem size.
// The kernels have one body each, which over an emulated T runs the exact
// engine: every row over an emulated T (BM_Dot, BM_Axpy, BM_SpMV,
// BM_ArnoldiStep) times that engine, the 8- and 16-bit ones included. The
// OnGrid<T> rows time the resident arithmetic the solvers run (table
// lookups at 8 bits). The rows are ungated and have no baseline.
// BM_SpMV times CsrMatrix<T>::matvec over T, which only direct callers and
// operators applied in T run; BM_ResidentSpMV times the matvec a resident
// solve runs: detail::ResidentOp over OnGrid<T>, the values on the grid.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "arith/on_grid.hpp"
#include "core/arnoldi.hpp"
#include "core/krylov_schur.hpp"
#include "kernels/vector_ops.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfla;

template <typename T>
std::vector<T> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(NumTraits<T>::from_double(rng.normal()));
  return v;
}

template <typename T>
void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec<T>(n, 1);
  const auto y = random_vec<T>(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::dot(n, x.data(), y.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

template <typename T>
void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec<T>(n, 3);
  auto y = random_vec<T>(n, 4);
  const T alpha = NumTraits<T>::from_double(0.37);
  for (auto _ : state) {
    kernels::axpy(n, alpha, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

template <typename T>
CsrMatrix<T> bench_matrix(std::size_t n) {
  Rng rng("bench_matrix", n);
  const CooMatrix lap = graph_laplacian_pipeline(erdos_renyi(static_cast<std::uint32_t>(n),
                                                             8.0 / static_cast<double>(n), rng));
  return CsrMatrix<double>::from_coo(lap).convert<T>();
}

template <typename T>
void BM_SpMV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = bench_matrix<T>(n);
  const auto x = random_vec<T>(a.rows(), 5);
  std::vector<T> y(a.rows());
  for (auto _ : state) {
    a.matvec(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}

template <typename T>
void BM_ResidentSpMV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = bench_matrix<T>(n);
  const detail::ResidentOp<T, CsrMatrix<T>> op(a, PartialSchurOptions{});
  std::vector<OnGrid<T>> x;
  for (const T v : random_vec<T>(a.rows(), 5)) x.emplace_back(v);
  std::vector<OnGrid<T>> y(a.rows());
  for (auto _ : state) {
    op.matvec(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}

template <typename T>
void BM_ArnoldiStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = bench_matrix<T>(n);
  const std::size_t m = 20;
  DenseMatrix<T> v(a.rows(), m + 1), s(m + 1, m);
  Rng rng(7);
  const auto v0 = rng.unit_vector(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) v(i, 0) = NumTraits<T>::from_double(v0[i]);
  // Pre-fill the first m-1 steps; benchmark the last (most expensive) one.
  Rng step_rng(8);
  for (std::size_t j = 0; j + 1 < m; ++j) arnoldi_step(a, v, s, j, step_rng);
  for (auto _ : state) {
    arnoldi_step(a, v, s, m - 1, step_rng);
    benchmark::DoNotOptimize(s(m - 1, m - 1));
  }
}

/// An n x cols basis with orthonormal columns, built in T by Gram–Schmidt
/// from normal random vectors, as an Arnoldi expansion would build it.
template <typename T>
DenseMatrix<T> orthonormal_basis(std::size_t n, std::size_t cols) {
  DenseMatrix<T> v(n, cols);
  std::vector<T> h(cols);
  for (std::size_t j = 0; j < cols; ++j) {
    const auto w = random_vec<T>(n, 100 + j);
    T* col = v.col(j);
    for (std::size_t i = 0; i < n; ++i) col[i] = w[i];
    const T nrm = detail::orthogonalize(v, j, col, h.data(), kernels::nrm2(n, col));
    kernels::scal(n, T(1) / nrm, col);
  }
  return v;
}

/// One Arnoldi step's Gram–Schmidt: a random w against 20 orthonormal
/// columns (modified Gram–Schmidt with its DGKS re-passes).
template <typename T>
void BM_Orthogonalize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t cols = 20;
  const DenseMatrix<T> v = orthonormal_basis<T>(n, cols);
  const auto w0 = random_vec<T>(n, 9);
  const T norm0 = kernels::nrm2(n, w0.data());
  std::vector<T> w(n), h(cols);
  for (auto _ : state) {
    std::copy(w0.begin(), w0.end(), w.begin());
    benchmark::DoNotOptimize(detail::orthogonalize(v, cols, w.data(), h.data(), norm0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * cols));
}

/// The thick restart's basis update: V (n x 25) times the leading 25 x 14
/// block of W, into V's first 14 columns. V is restored before each update
/// (a copy of n x 26 values) so every iteration sees the same operands.
template <typename T>
void BM_UpdateBasis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t m = 25, keep = 14;
  DenseMatrix<T> v0(n, m + 1);
  const auto vals = random_vec<T>(n * (m + 1), 11);
  for (std::size_t j = 0; j <= m; ++j)
    for (std::size_t i = 0; i < n; ++i) v0(i, j) = vals[j * n + i];
  DenseMatrix<T> w(m + 1, m);
  const auto wvals = random_vec<T>((m + 1) * m, 12);
  const T scale = NumTraits<T>::from_double(0.2);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t l = 0; l <= m; ++l) w(l, j) = scale * wvals[j * (m + 1) + l];
  DenseMatrix<T> v = v0;
  std::vector<T> scratch;
  for (auto _ : state) {
    v = v0;
    kernels::update_basis(v, w, m, keep, scratch);
    benchmark::DoNotOptimize(v.col(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m * keep));
}

#define MFLA_KERNEL_BENCH(T)                                    \
  BENCHMARK_TEMPLATE(BM_Dot, T)->Arg(256)->Arg(4096);           \
  BENCHMARK_TEMPLATE(BM_Axpy, T)->Arg(256)->Arg(4096);          \
  BENCHMARK_TEMPLATE(BM_SpMV, T)->Arg(512);                     \
  BENCHMARK_TEMPLATE(BM_ArnoldiStep, T)->Arg(512)

#define MFLA_VECTOR_BENCH(T)                          \
  BENCHMARK_TEMPLATE(BM_Dot, T)->Arg(256)->Arg(4096); \
  BENCHMARK_TEMPLATE(BM_Axpy, T)->Arg(256)->Arg(4096)

MFLA_VECTOR_BENCH(OFP8E4M3);
MFLA_VECTOR_BENCH(OnGrid<OFP8E4M3>);
MFLA_VECTOR_BENCH(Posit8);
MFLA_VECTOR_BENCH(OnGrid<Posit8>);
MFLA_KERNEL_BENCH(float);
MFLA_KERNEL_BENCH(double);
MFLA_KERNEL_BENCH(Float16);
MFLA_KERNEL_BENCH(BFloat16);
MFLA_KERNEL_BENCH(Posit16);
MFLA_KERNEL_BENCH(Takum16);
MFLA_KERNEL_BENCH(Posit32);
MFLA_KERNEL_BENCH(Takum32);
MFLA_KERNEL_BENCH(Quad);
BENCHMARK_TEMPLATE(BM_ResidentSpMV, BFloat16)->Arg(512);
BENCHMARK_TEMPLATE(BM_ResidentSpMV, Posit16)->Arg(512);
BENCHMARK_TEMPLATE(BM_ResidentSpMV, Posit32)->Arg(512);
BENCHMARK_TEMPLATE(BM_ResidentSpMV, Takum32)->Arg(512);
BENCHMARK_TEMPLATE(BM_ResidentSpMV, Posit64)->Arg(512);

// The Krylov basis kernels over the scalars production solves run them on,
// at the n of the large graph solves.
#define MFLA_BASIS_BENCH(T)                              \
  BENCHMARK_TEMPLATE(BM_Orthogonalize, T)->Arg(3000);    \
  BENCHMARK_TEMPLATE(BM_UpdateBasis, T)->Arg(3000)

MFLA_BASIS_BENCH(OnGrid<OFP8E4M3>);
MFLA_BASIS_BENCH(OnGrid<Posit8>);
MFLA_BASIS_BENCH(OnGrid<BFloat16>);
MFLA_BASIS_BENCH(OnGrid<Posit32>);
MFLA_BASIS_BENCH(OnGrid<Posit64>);
MFLA_BASIS_BENCH(OnGrid<Takum64>);
MFLA_BASIS_BENCH(float);
MFLA_BASIS_BENCH(double);

}  // namespace

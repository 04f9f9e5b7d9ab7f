// Allocation-free hot-loop tests: a global operator-new hook counts heap
// allocations and asserts the steady-state Arnoldi inner loop performs
// none (in T, in the resident OnGrid<T>, and through both branches of the
// ResidentOp adapter a resident solve applies its operator through: a
// CsrMatrix<T> on the grid, any other operator in T), and golden digests
// pin partialschur's results bit-for-bit to the pre-workspace-refactor
// implementation across all <=16-bit formats and to recorded digests for
// the 32/64-bit posit and takum formats.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "arith/format_registry.hpp"
#include "core/krylov_schur.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/csr.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

// ---------------------------------------------------------------------------
// Global operator-new hook. Replacing these in the test binary intercepts
// every heap allocation of the process (including the library's), which is
// exactly what we want: the steady-state Arnoldi step must do none.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mfla {
namespace {

CsrMatrix<double> workspace_matrix() {
  Rng gr(0x60a1);
  return CsrMatrix<double>::from_coo(graph_laplacian_pipeline(erdos_renyi(48, 0.18, gr)));
}

// libm-free deterministic start vector: splitmix words -> [-1, 1), then
// exact normalization (sqrt and division are correctly rounded, so the
// resulting bits are identical on every IEEE-conforming platform).
std::vector<double> golden_start(std::size_t n) {
  SplitMix64 sm(0x5eedf00dull);
  std::vector<double> v(n);
  double nrm2 = 0.0;
  for (auto& x : v) {
    x = static_cast<double>(sm.next() >> 11) * 0x1.0p-52 - 1.0;
    nrm2 += x * x;
  }
  const double inv = 1.0 / mfla::sqrt(nrm2);
  for (auto& x : v) x *= inv;
  return v;
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations per arnoldi_step
// ---------------------------------------------------------------------------

constexpr std::size_t kStepsMaxdim = 16;

/// Two full expansions of an n x kStepsMaxdim basis over `a`; the second
/// must not allocate.
template <typename T, class Op>
void expect_allocation_free_steps(const Op& a) {
  const std::size_t n = a.rows();
  const std::size_t maxdim = kStepsMaxdim;

  DenseMatrix<T> v(n, maxdim + 1);
  DenseMatrix<T> s(maxdim + 1, maxdim);
  ArnoldiWorkspace<T> ws;
  ws.reserve(n, maxdim);
  Rng rng(0x5157);

  const std::vector<double> v0 = golden_start(n);
  auto load_start = [&] {
    for (std::size_t i = 0; i < n; ++i) v(i, 0) = NumTraits<T>::from_double(v0[i]);
    const T nrm = kernels::nrm2(n, v.col(0));
    kernels::scal(n, T(1) / nrm, v.col(0));
  };

  // Warm-up expansion: faults in the lazily built LUT tables and any other
  // one-time setup, and serves as the steady state the assertion targets.
  load_start();
  s.fill(T(0));
  for (std::size_t j = 0; j < maxdim; ++j)
    ASSERT_NE(arnoldi_step(a, v, s, j, rng, ws), ExpandStatus::failed);

  // Steady state: a full second expansion must not allocate at all.
  load_start();
  s.fill(T(0));
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t j = 0; j < maxdim; ++j)
    ASSERT_NE(arnoldi_step(a, v, s, j, rng, ws), ExpandStatus::failed);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "arnoldi_step allocated on its steady-state path";
}

template <typename T>
void expect_allocation_free_steps() {
  expect_allocation_free_steps<T>(workspace_matrix().convert<T>());
}

/// A CsrMatrix<T> behind an operator type of its own: a resident solve
/// applies it in T (ResidentOp's foreign branch), not on the grid.
template <typename T>
struct ForeignOp {
  const CsrMatrix<T>& a;
  [[nodiscard]] std::size_t rows() const noexcept { return a.rows(); }
  void matvec(const T* x, T* y) const { a.matvec(x, y); }
};

/// The resident solve's view of its operator, both branches: the
/// adapter's grid values (CSR) or its T scratch (foreign) are sized at
/// construction, so expanding through it allocates nothing either.
template <typename T>
void expect_allocation_free_resident_steps() {
  const CsrMatrix<T> a = workspace_matrix().convert<T>();
  PartialSchurOptions opts;
  opts.maxdim = kStepsMaxdim;
  const detail::ResidentOp<T, CsrMatrix<T>> csr(a, opts);
  expect_allocation_free_steps<OnGrid<T>>(csr);
  const ForeignOp<T> foreign{a};
  const detail::ResidentOp<T, ForeignOp<T>> round_trip(foreign, opts);
  expect_allocation_free_steps<OnGrid<T>>(round_trip);
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeDouble) {
  expect_allocation_free_steps<double>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeFloat16) {
  expect_allocation_free_steps<Float16>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeE4M3) {
  expect_allocation_free_steps<OFP8E4M3>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeTakum16) {
  expect_allocation_free_steps<Takum16>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeOnGridPosit32) {
  expect_allocation_free_steps<OnGrid<Posit32>>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeOnGridPosit64) {
  expect_allocation_free_steps<OnGrid<Posit64>>();
}

TEST(ArnoldiWorkspace, StepsThroughResidentOpAreAllocationFree) {
  expect_allocation_free_resident_steps<OFP8E4M3>();
  expect_allocation_free_resident_steps<Posit8>();
  expect_allocation_free_resident_steps<BFloat16>();
  expect_allocation_free_resident_steps<Posit32>();
  expect_allocation_free_resident_steps<Takum64>();
}

// The operator-new hook itself must be live, or the zero-count assertions
// above would pass vacuously.
TEST(ArnoldiWorkspace, AllocationHookIsLive) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto* p = new std::vector<int>(128);
  delete p;
  EXPECT_GT(g_alloc_count.load(std::memory_order_relaxed), before);
}

// ---------------------------------------------------------------------------
// Bit-identity against the pre-refactor solver
// ---------------------------------------------------------------------------

/// Digest of everything partialschur produces, in double bit patterns.
/// With `over_format` the solver body runs over T itself
/// (detail::partialschur_core<T>), not resident.
template <typename T>
Hash128 partialschur_digest(const CsrMatrix<double>& ad, const std::vector<double>& start,
                            bool over_format = false, int max_restarts = 60) {
  const CsrMatrix<T> a = ad.convert<T>();
  PartialSchurOptions opts;
  opts.nev = 6;
  opts.which = Which::largest_magnitude;
  opts.tolerance = NumTraits<T>::default_tolerance();
  opts.max_restarts = max_restarts;
  opts.start_vector = &start;
  opts.seed = 0xbeef;
  const auto r = over_format ? detail::partialschur_core<T>(a, opts) : partialschur<T>(a, opts);
  Hasher h;
  h.u64(r.converged ? 1 : 0).u64(r.nconverged).u64(static_cast<std::uint64_t>(r.restarts));
  h.u64(r.matvecs);
  h.span(r.eig_re.data(), r.eig_re.size());
  h.span(r.eig_im.data(), r.eig_im.size());
  for (std::size_t j = 0; j < r.q.cols(); ++j)
    for (std::size_t i = 0; i < r.q.rows(); ++i) h.f64(NumTraits<T>::to_double(r.q(i, j)));
  for (std::size_t j = 0; j < r.r.cols(); ++j)
    for (std::size_t i = 0; i < r.r.rows(); ++i) h.f64(NumTraits<T>::to_double(r.r(i, j)));
  return h.finish();
}

TEST(PartialSchurBitIdentity, MatchesPreRefactorGoldensForNarrowFormats) {
  // Golden digests captured from the pre-workspace-refactor solver (PR 3
  // state) on this exact matrix (erdos_renyi(48, 0.18) laplacian, n=48,
  // nnz=440) and start vector. The solve path is libm-free end to end
  // (emulated-format arithmetic; double appears only in exactly rounded
  // ops), so these bits are platform-independent for IEEE-conforming
  // doubles. Any divergence means the workspace refactor (or a later
  // change) altered the arithmetic, not just the allocations.
  const std::map<std::string, Hash128> golden = {
      {"e4m3", {0xa178776472d802d2ull, 0xf99c4f9ed025570bull}},
      {"e5m2", {0x1c4b0558d0a270a7ull, 0x16a6a59116bad84dull}},
      {"p8", {0xe0533f1a6d8f96d7ull, 0xab54545ea95cb493ull}},
      {"t8", {0xeb5aa60d0fe59a9cull, 0xea094799c8846e27ull}},
      {"f16", {0x81bf7d81a26f25edull, 0xe8d0e39f0fa88e4bull}},
      {"bf16", {0xd79508f1a1255361ull, 0x749e458b99697d45ull}},
      {"p16", {0x34bdb8094c1fb666ull, 0xa8a54a99e3dd41b3ull}},
      {"t16", {0x78ea1da36a9e7c3dull, 0x034aeee182ddf984ull}},
  };
  const CsrMatrix<double> a = workspace_matrix();
  ASSERT_EQ(a.rows(), 48u);
  ASSERT_EQ(a.nnz(), 440u);
  const std::vector<double> start = golden_start(a.rows());

  const auto check = [&](const char* key, const Hash128& digest) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end());
    EXPECT_EQ(digest, it->second) << "partialschur<" << key << "> diverged from the "
                                  << "pre-refactor bits";
  };
  check("e4m3", partialschur_digest<OFP8E4M3>(a, start));
  check("e5m2", partialschur_digest<OFP8E5M2>(a, start));
  check("p8", partialschur_digest<Posit8>(a, start));
  check("t8", partialschur_digest<Takum8>(a, start));
  check("f16", partialschur_digest<Float16>(a, start));
  check("bf16", partialschur_digest<BFloat16>(a, start));
  check("p16", partialschur_digest<Posit16>(a, start));
  check("t16", partialschur_digest<Takum16>(a, start));
}

// The 32/64-bit tapered formats have no exhaustive codec test (their
// operand spaces are too large), so these digests are what pins their
// encode path end to end. Captured from the BitBuilder-based codecs that
// preceded the word-level encode, on the same matrix and start vector.
TEST(PartialSchurBitIdentity, MatchesGoldensForWideTaperedFormats) {
  const std::map<std::string, Hash128> golden = {
      {"p32", {0x4700d8f3e2eec4c6ull, 0x93262b74464ad46bull}},
      {"t32", {0xe6468bc304f7b755ull, 0x86c52620160bd54cull}},
      {"p64", {0x54fa3294ed648873ull, 0xaf8ce13fb0445d26ull}},
      {"t64", {0xe433b437fc831194ull, 0xac09946aaca6a84eull}},
  };
  const CsrMatrix<double> a = workspace_matrix();
  const std::vector<double> start = golden_start(a.rows());

  const auto check = [&](const char* key, const Hash128& digest) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end());
    EXPECT_EQ(digest, it->second) << "partialschur<" << key << "> diverged from the "
                                  << "recorded bits";
  };
  check("p32", partialschur_digest<Posit32>(a, start));
  check("t32", partialschur_digest<Takum32>(a, start));
  check("p64", partialschur_digest<Posit64>(a, start));
  check("t64", partialschur_digest<Takum64>(a, start));
}

// The large-n path: n is past two of update_basis's row tiles and not a
// multiple of mgs_pass's chunk, so every remainder of the blocked loops
// runs. The digests were captured from the solver whose Gram–Schmidt ran
// one dot, then one axpy, per column and whose basis update ran one
// column at a time; one format per kind of grid, plus the natives.
TEST(PartialSchurBitIdentity, MatchesGoldensAtLargeN) {
  const std::map<std::string, Hash128> golden = {
      {"f32", {0x80b729cfa60de40eull, 0x0b45ceb934edf101ull}},
      {"f64", {0xc575a3fd8da74899ull, 0xd8471f6333058486ull}},
      {"e4m3", {0x06c8dc8644736c74ull, 0x4cceac791aa5dad3ull}},
      {"bf16", {0x025d32b75597bf0eull, 0x9d2dc591f437dacbull}},
      {"p32", {0x793a2339fb8ba2caull, 0x91cac4f9c6ccf7fbull}},
      {"p64", {0x73b1bd0ec84a1e24ull, 0x392057cc14988f02ull}},
  };
  Rng gr(0x1a46e);
  const CsrMatrix<double> a =
      CsrMatrix<double>::from_coo(graph_laplacian_pipeline(erdos_renyi(1203, 6.0 / 1203, gr)));
  ASSERT_EQ(a.rows(), 1203u);
  ASSERT_GT(a.rows(), 2 * kernels::kBasisTileRows);
  ASSERT_NE(a.rows() % kernels::kMgsChunkRows, 0u);
  const std::vector<double> start = golden_start(a.rows());

  const auto check = [&](const char* key, const Hash128& digest) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end());
    char got[64];
    std::snprintf(got, sizeof got, "{0x%016llxull, 0x%016llxull}",
                  static_cast<unsigned long long>(digest.lo),
                  static_cast<unsigned long long>(digest.hi));
    EXPECT_EQ(digest, it->second) << "partialschur<" << key << "> at n = 1203 diverged from "
                                  << "the recorded bits: " << got;
  };
  constexpr int kRestarts = 12;
  check("f32", partialschur_digest<float>(a, start, false, kRestarts));
  check("f64", partialschur_digest<double>(a, start, false, kRestarts));
  check("e4m3", partialschur_digest<OFP8E4M3>(a, start, false, kRestarts));
  check("bf16", partialschur_digest<BFloat16>(a, start, false, kRestarts));
  check("p32", partialschur_digest<Posit32>(a, start, false, kRestarts));
  check("p64", partialschur_digest<Posit64>(a, start, false, kRestarts));
}

// The tables must not change a single bit. A resident solve reads them
// (the 8-bit grid is the tables, and a CsrMatrix<T> is applied on the
// grid), so the reference is the solver body run over T itself: the exact
// engine end to end, SpMV included. The workspace matrix x the eight
// formats of 8 and 16 bits; the two experiment graphs get the same
// comparison in KernelAccel.ExperimentCsvByteIdenticalLutOnOff.
TEST(PartialSchurBitIdentity, LutOnAndOffAgree) {
  const CsrMatrix<double> a = workspace_matrix();
  const std::vector<double> start = golden_start(a.rows());
  const auto check = [&](auto tag) {
    using T = typename decltype(tag)::type;
    const Hash128 on = partialschur_digest<T>(a, start);
    const Hash128 off = partialschur_digest<T>(a, start, true);
    EXPECT_EQ(on, off) << NumTraits<T>::name();
  };
  check(TypeTag<OFP8E4M3>{});
  check(TypeTag<OFP8E5M2>{});
  check(TypeTag<Posit8>{});
  check(TypeTag<Takum8>{});
  check(TypeTag<Float16>{});
  check(TypeTag<BFloat16>{});
  check(TypeTag<Posit16>{});
  check(TypeTag<Takum16>{});
}

// ---------------------------------------------------------------------------
// Planned SpMV: the grid copy of the values a resident solve makes once
// ---------------------------------------------------------------------------

/// ResidentOp<T, CsrMatrix<T>> (values converted to the grid at
/// construction) against kernels::spmv over T, the exact engine.
template <typename T>
void expect_planned_spmv_identity() {
  const CsrMatrix<double> ad = workspace_matrix();
  const CsrMatrix<T> a = ad.convert<T>();
  const std::size_t n = a.rows();
  std::vector<T> x(n), y_generic(n);
  std::vector<OnGrid<T>> xg(n), y_planned(n);
  SplitMix64 sm(0xabc);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = NumTraits<T>::from_double(static_cast<double>(sm.next() >> 11) * 0x1.0p-52 - 1.0);
    xg[i] = OnGrid<T>(x[i]);
  }

  const detail::ResidentOp<T, CsrMatrix<T>> op(a, PartialSchurOptions{});
  op.matvec(xg.data(), y_planned.data());
  kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                y_generic.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(y_planned[i].to_format().bits(), y_generic[i].bits());
}

TEST(PlannedSpmv, BitIdenticalToGenericAndReferenceE4M3) {
  expect_planned_spmv_identity<OFP8E4M3>();
}

TEST(PlannedSpmv, BitIdenticalToGenericAndReferencePosit8) {
  expect_planned_spmv_identity<Posit8>();
}

}  // namespace
}  // namespace mfla

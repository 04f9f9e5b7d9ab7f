// partialschur(): the implicitly restarted Arnoldi method with Krylov–Schur
// restarts, modeled on ArnoldiMethod.jl (the solver the paper uses).
//
// Maintains the Krylov decomposition
//     A V_k = V_k S_k + v_k b_k^T
// with V orthonormal. Each cycle expands the basis to maxdim with Arnoldi
// steps, reduces the Rayleigh matrix (Schur + spike + Hessenberg extension)
// back to Hessenberg form, computes its real Schur form (Francis QR),
// reorders the wanted Ritz values to the front, locks converged pairs and
// truncates. Works for general real matrices; for symmetric inputs the
// Schur form is diagonal and the Schur vectors are the eigenvectors
// (paper §2.2).
//
// float16, bfloat16 and the 16/32/64-bit posits and takums run resident
// (binary64 up to 32 bits, unpacked at 64): partialschur<T> runs the same
// body over OnGrid<T> (arith/on_grid.hpp), with the caller's T operator
// behind a ResidentOp, and converts q and r back to T at the end. Every
// step is bit-identical to the body over T itself (tests/test_on_grid.cpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arith/on_grid.hpp"
#include "core/arnoldi.hpp"
#include "kernels/vector_ops.hpp"
#include "dense/hessenberg.hpp"
#include "dense/schur.hpp"
#include "dense/schur_reorder.hpp"

namespace mfla {

enum class Which {
  largest_magnitude,
  smallest_magnitude,
  largest_real,
  smallest_real,
};

struct PartialSchurOptions {
  std::size_t nev = 10;
  Which which = Which::largest_magnitude;
  double tolerance = 0.0;    // 0: use NumTraits<T>::default_tolerance()
  std::size_t mindim = 0;    // 0: max(10, nev)
  std::size_t maxdim = 0;    // 0: max(20, 2*nev)
  int max_restarts = 100;
  std::uint64_t seed = 0x1234u;
  /// Optional shared start vector (unit 2-norm, in double); the experiment
  /// driver passes the same vector to every format for comparability.
  const std::vector<double>* start_vector = nullptr;
  /// Householder reflector formulation in the restart QR (ablation A4).
  ReflectorStyle reflector_style = ReflectorStyle::lapack;
};

template <typename T>
struct PartialSchurResult {
  bool converged = false;       // nev pairs converged
  std::size_t nconverged = 0;   // converged leading pairs
  int restarts = 0;
  std::size_t matvecs = 0;
  std::string failure;          // non-empty on hard failure
  DenseMatrix<T> q;             // n x k Schur vectors (k >= nev on success)
  DenseMatrix<T> r;             // k x k quasi-triangular Rayleigh block
  std::vector<double> eig_re;   // eigenvalues from r, in diagonal order
  std::vector<double> eig_im;
};

/// All restart-loop scratch of one partialschur/lanczos_eigs solve. Sized
/// on first use and recycled across restarts, so the steady-state cycle
/// (expand -> reduce -> reorder -> truncate) reuses one set of buffers
/// instead of reallocating the Rayleigh/accumulator matrices, the spike,
/// the reflector scratch and the basis-update scratch every restart.
template <typename T>
struct KrylovSchurWorkspace {
  ArnoldiWorkspace<T> arnoldi;     // inner-loop scratch (allocation-free steps)
  DenseMatrix<T> t;                // m x m Rayleigh matrix -> Schur form
  DenseMatrix<T> q;                // m x m orthogonal accumulator
  HessenbergScratch<T> hessenberg; // reflector scratch of the re-reduction
  std::vector<T> basis_scratch;    // n x keep accumulator of update_basis
  std::vector<double> spike;       // residual couplings b^T q
};

namespace detail {

[[nodiscard]] inline bool prefer_eig(Which which, double are, double aim, double bre,
                                     double bim) noexcept {
  switch (which) {
    case Which::largest_magnitude: return std::hypot(are, aim) > std::hypot(bre, bim);
    case Which::smallest_magnitude: return std::hypot(are, aim) < std::hypot(bre, bim);
    case Which::largest_real: return are > bre;
    case Which::smallest_real: return are < bre;
  }
  return false;
}

/// What partialschur and lanczos_eigs share before their first expansion:
/// the subspace bounds and the basis with its unit start vector in
/// column 0.
template <typename T>
struct KrylovStart {
  std::size_t mindim = 0;  // vectors a restart keeps, at least 1
  std::size_t maxdim = 0;  // basis size after expansion, at most n-1
  DenseMatrix<T> v;        // n x (maxdim+1)
};

/// Clamp opts' mindim/maxdim to an n x n operator. Returns the failure
/// message, empty on success.
[[nodiscard]] inline std::string krylov_dims(std::size_t n, const PartialSchurOptions& opts,
                                             std::size_t& mindim_out, std::size_t& maxdim_out) {
  const std::size_t nev = opts.nev;
  if (nev == 0 || n < 2) return "matrix too small";
  std::size_t mindim = opts.mindim != 0 ? opts.mindim : std::max<std::size_t>(10, nev);
  std::size_t maxdim = opts.maxdim != 0 ? opts.maxdim : std::max<std::size_t>(20, 2 * nev);
  // The decomposition keeps maxdim+1 basis vectors; cap at n-1 so the
  // residual direction always exists (full-space runs deflate via beta=0).
  maxdim = std::min(maxdim, n - 1);
  mindim = std::min(mindim, maxdim >= 2 ? maxdim - 2 : 1);
  // A restart that keeps no Ritz vector starts over and never converges.
  mindim = std::max<std::size_t>(mindim, 1);
  if (nev > maxdim) return "nev exceeds subspace dimension";
  mindim_out = mindim;
  maxdim_out = maxdim;
  return {};
}

/// krylov_dims into st, then load the start vector (opts.start_vector when
/// it has length n, else a draw from rng), normalized in T. Returns the
/// failure message, empty on success.
template <typename T>
[[nodiscard]] std::string krylov_start(std::size_t n, const PartialSchurOptions& opts, Rng& rng,
                                       KrylovStart<T>& st) {
  if (std::string failure = krylov_dims(n, opts, st.mindim, st.maxdim); !failure.empty())
    return failure;
  const std::size_t maxdim = st.maxdim;

  // Start vector (unit, shared across formats when provided).
  st.v = DenseMatrix<T>(n, maxdim + 1);
  DenseMatrix<T>& v = st.v;
  std::vector<double> v0;
  if (opts.start_vector != nullptr && opts.start_vector->size() == n) {
    v0 = *opts.start_vector;
  } else {
    v0 = rng.unit_vector(n);
  }
  for (std::size_t i = 0; i < n; ++i) v(i, 0) = NumTraits<T>::from_double(v0[i]);
  // Normalize in T (conversion perturbs the double-unit norm).
  const T nrm = kernels::nrm2(n, v.col(0));
  if (!is_number(nrm) || NumTraits<T>::to_double(nrm) == 0.0)
    return "start vector collapsed in format";
  kernels::scal(n, T(1) / nrm, v.col(0));
  return {};
}

/// The caller's operator on T seen from a solve resident in OnGrid<T>:
/// matvec converts x to T (exact), applies the operator and reads y back
/// (exact). Its scratch is sized once per solve, so matvec allocates
/// nothing. The T copy of x mirrors the basis layout: x lands at the same
/// column of an n x (maxdim+1) T matrix as it has in the solver's basis
/// (the first call is column 0), so an operator that keys on the column
/// it is handed (e2ebench's TimingOp) sees what it would see in T.
template <typename T, class Op>
class ResidentOp {
 public:
  ResidentOp(const Op& a, const PartialSchurOptions& opts) : a_(a) {
    const std::size_t n = a.rows();
    std::size_t mindim = 0, maxdim = 0;
    const std::size_t cols = krylov_dims(n, opts, mindim, maxdim).empty() ? maxdim + 1 : 1;
    x_ = DenseMatrix<T>(n, cols);
    y_.resize(n);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return a_.rows(); }

  void matvec(const OnGrid<T>* x, OnGrid<T>* y) const {
    const std::size_t n = x_.rows();
    const auto addr = reinterpret_cast<std::uintptr_t>(x);
    if (base_ == 0) base_ = addr;
    std::size_t col = (addr - base_) / (n * sizeof(OnGrid<T>));  // wraps below base_
    if (col >= x_.cols()) col = 0;
    T* const xt = x_.col(col);
    for (std::size_t i = 0; i < n; ++i) xt[i] = x[i].to_format();
    a_.matvec(static_cast<const T*>(xt), y_.data());
    for (std::size_t i = 0; i < n; ++i) y[i] = OnGrid<T>(y_[i]);
  }

 private:
  const Op& a_;
  mutable DenseMatrix<T> x_;
  mutable std::vector<T> y_;
  mutable std::uintptr_t base_ = 0;  // x of the first call: column 0
};

/// A resident solve's result in T (q and r convert exactly).
template <typename T>
[[nodiscard]] PartialSchurResult<T> to_format(PartialSchurResult<OnGrid<T>>&& r) {
  PartialSchurResult<T> out;
  out.converged = r.converged;
  out.nconverged = r.nconverged;
  out.restarts = r.restarts;
  out.matvecs = r.matvecs;
  out.failure = std::move(r.failure);
  const auto convert = [](OnGrid<T> x) { return x.to_format(); };
  out.q = r.q.template map<T>(convert);
  out.r = r.r.template map<T>(convert);
  out.eig_re = std::move(r.eig_re);
  out.eig_im = std::move(r.eig_im);
  return out;
}

/// The Krylov–Schur body over the working scalar T: the format itself, or
/// OnGrid<format> for a resident solve (partialschur picks).
template <typename T, class Op>
PartialSchurResult<T> partialschur_core(const Op& a, const PartialSchurOptions& opts) {
  const std::size_t n = a.rows();
  PartialSchurResult<T> out;

  const std::size_t nev = opts.nev;
  Rng rng(opts.seed);
  detail::KrylovStart<T> start;
  out.failure = detail::krylov_start(n, opts, rng, start);
  if (!out.failure.empty()) return out;
  const std::size_t mindim = start.mindim, maxdim = start.maxdim;
  DenseMatrix<T>& v = start.v;
  DenseMatrix<T> s(maxdim + 1, maxdim);
  const double tol = opts.tolerance > 0 ? opts.tolerance : NumTraits<T>::default_tolerance();

  KrylovSchurWorkspace<T> ws;
  ws.arnoldi.reserve(n, maxdim);

  std::size_t k = 0;  // active decomposition size
  for (int restart = 0; restart <= opts.max_restarts; ++restart) {
    out.restarts = restart;

    // ---- Expansion: k -> m ------------------------------------------------
    const std::size_t m = maxdim;
    for (std::size_t j = k; j < m; ++j) {
      const ExpandStatus es = arnoldi_step(a, v, s, j, rng, ws.arnoldi);
      ++out.matvecs;
      if (es == ExpandStatus::failed) {
        out.failure = "non-finite values during Arnoldi expansion";
        return out;
      }
    }
    const T beta = s(m, m - 1);

    // ---- Rayleigh matrix -> Hessenberg -> real Schur ----------------------
    // t/q are workspace matrices, fully overwritten here each restart.
    DenseMatrix<T>& t = ws.t;
    DenseMatrix<T>& q = ws.q;
    t.resize(m, m);
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < m; ++i) t(i, j) = s(i, j);
    q.set_identity(m);
    if (!hessenberg_reduce(t, q, ws.hessenberg)) {
      out.failure = "non-finite values in Hessenberg reduction";
      return out;
    }
    const SchurStatus sst = hessenberg_to_schur(t, q, 40, opts.reflector_style);
    if (!sst.ok) {
      out.failure = "Schur iteration failed to converge";
      return out;
    }

    // ---- Reorder wanted Ritz values to the front --------------------------
    const Which which = opts.which;
    reorder_schur<T>(t, q, [which](const SchurBlock& x, const SchurBlock& y) {
      return detail::prefer_eig(which, x.re, x.im, y.re, y.im);
    });

    // ---- Spike and convergence --------------------------------------------
    std::vector<double>& spike = ws.spike;
    spike.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      spike[i] = NumTraits<T>::to_double(beta) * NumTraits<T>::to_double(q(m - 1, i));
    }
    const auto blocks = schur_blocks(t);
    std::size_t nconv = 0;     // converged leading columns
    for (const auto& blk : blocks) {
      double res = 0.0;
      for (int c = 0; c < blk.size; ++c) {
        const double e = spike[blk.start + static_cast<std::size_t>(c)];
        res += e * e;
      }
      res = std::sqrt(res);
      const double mag = std::hypot(blk.re, blk.im);
      if (!(res <= tol * mag)) break;  // also stops on NaN residuals
      nconv += static_cast<std::size_t>(blk.size);
    }
    out.nconverged = std::min(nconv, nev);

    const bool done = nconv >= nev || restart == opts.max_restarts;
    if (done) {
      // Keep nev columns, extended by one if that would split a 2x2 block.
      std::size_t keep = std::min(nev, m);
      if (keep < m && t(keep, keep - 1) != T(0)) ++keep;
      kernels::update_basis(v, q, m, keep, ws.basis_scratch);
      out.q = v.top_left(n, keep);
      out.r = t.top_left(keep, keep);
      std::vector<T> re, im;
      schur_eigenvalues(out.r, re, im);
      out.eig_re.resize(keep);
      out.eig_im.resize(keep);
      for (std::size_t i = 0; i < keep; ++i) {
        out.eig_re[i] = NumTraits<T>::to_double(re[i]);
        out.eig_im[i] = NumTraits<T>::to_double(im[i]);
      }
      out.converged = nconv >= nev;
      if (!out.converged) out.failure = "no convergence within restart budget";
      return out;
    }

    // ---- Truncate (thick restart) ------------------------------------------
    std::size_t keep = mindim + std::min(nconv, (maxdim - mindim) / 2);
    keep = std::min(keep, m - 1);
    if (keep < m && t(keep, keep - 1) != T(0)) ++keep;  // do not split a pair
    keep = std::min(keep, m - 1);

    kernels::update_basis(v, q, m, keep, ws.basis_scratch);
    // Residual vector v_m becomes the new v_k.
    {
      T* dst = v.col(keep);
      const T* src = v.col(m);
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    }
    s.fill(T(0));
    for (std::size_t j = 0; j < keep; ++j)
      for (std::size_t i = 0; i < keep; ++i) s(i, j) = t(i, j);
    for (std::size_t i = 0; i < keep; ++i) {
      // Lock converged leading pairs: their couplings are annihilated.
      const double val = (i < nconv) ? 0.0 : spike[i];
      s(keep, i) = NumTraits<T>::from_double(val);
    }
    k = keep;
  }
  out.failure = "restart loop left unexpectedly";
  return out;
}

}  // namespace detail

template <typename T, class Op>
PartialSchurResult<T> partialschur(const Op& a, const PartialSchurOptions& opts = {}) {
  if constexpr (kGridResident<T>) {
    const detail::ResidentOp<T, Op> op(a, opts);
    return detail::to_format(detail::partialschur_core<OnGrid<T>>(op, opts));
  } else {
    return detail::partialschur_core<T>(a, opts);
  }
}

}  // namespace mfla

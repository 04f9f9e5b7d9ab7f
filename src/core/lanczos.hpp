// Thick-restart Lanczos (Wu & Simon): the symmetric-specialized companion
// to partialschur(), analogous to ARPACK's dsaupd next to dnaupd.
//
// Maintains A V_k = V_k D_k + v_k b_k^T with D_k diagonal; expansion uses
// the three-term recurrence plus full reorthogonalization (iterated CGS,
// same kernel as the Arnoldi path — low-precision Lanczos without
// reorthogonalization loses orthogonality immediately, which would
// confound the format comparison). The projected matrix after a restart is
// diagonal-plus-arrowhead-plus-tridiagonal; its eigendecomposition uses
// the Jacobi kernel (robust at restart dimensions).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/arnoldi.hpp"
#include "kernels/vector_ops.hpp"
#include "core/krylov_schur.hpp"
#include "dense/jacobi.hpp"

namespace mfla {

namespace detail {

/// The thick-restart Lanczos body over the working scalar T: the format
/// itself, or OnGrid<format> for a resident solve (lanczos_eigs picks).
template <typename T, class Op>
PartialSchurResult<T> lanczos_core(const Op& a, const PartialSchurOptions& opts) {
  const std::size_t n = a.rows();
  PartialSchurResult<T> out;
  const std::size_t nev = opts.nev;
  Rng rng(opts.seed);
  detail::KrylovStart<T> start;
  out.failure = detail::krylov_start(n, opts, rng, start);
  if (!out.failure.empty()) return out;
  const std::size_t mindim = start.mindim, maxdim = start.maxdim;
  DenseMatrix<T>& v = start.v;
  // Projected symmetric matrix (dense storage; diagonal+arrow+tridiagonal).
  DenseMatrix<T> s(maxdim + 1, maxdim);
  const double tol = opts.tolerance > 0 ? opts.tolerance : NumTraits<T>::default_tolerance();

  KrylovSchurWorkspace<T> ws;
  ws.arnoldi.reserve(n, maxdim);

  std::size_t k = 0;
  for (int restart = 0; restart <= opts.max_restarts; ++restart) {
    out.restarts = restart;
    const std::size_t m = maxdim;
    for (std::size_t j = k; j < m; ++j) {
      // arnoldi_step orthogonalizes against the full basis: in exact
      // arithmetic only the last two coefficients are non-zero (Lanczos
      // recurrence); keeping the full projection = full reorthogonalization.
      const ExpandStatus es = arnoldi_step(a, v, s, j, rng, ws.arnoldi);
      ++out.matvecs;
      if (es == ExpandStatus::failed) {
        out.failure = "non-finite values during Lanczos expansion";
        return out;
      }
      // Enforce symmetry of the projected block (Lanczos invariant).
      for (std::size_t i = 0; i < j; ++i) s(j, i) = s(i, j);
    }
    const T beta = s(m, m - 1);

    // Eigendecomposition of the symmetric projected matrix.
    DenseMatrix<T> sm(m, m);
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < m; ++i) sm(i, j) = s(i, j);
    // Symmetrize fully (rounding skew from the expansion).
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < j; ++i) {
        const T avg = (sm(i, j) + sm(j, i)) * NumTraits<T>::from_double(0.5);
        sm(i, j) = avg;
        sm(j, i) = avg;
      }
    DenseMatrix<T> q;
    if (jacobi_eigen(sm, q, 40) < 0) {
      out.failure = "projected eigendecomposition failed";
      return out;
    }
    // Sort eigenpairs by the requested ordering.
    std::vector<std::size_t> order(m);
    for (std::size_t i = 0; i < m; ++i) order[i] = i;
    std::vector<double> vals(m);
    for (std::size_t i = 0; i < m; ++i) vals[i] = NumTraits<T>::to_double(sm(i, i));
    const Which which = opts.which;
    std::sort(order.begin(), order.end(), [&vals, which](std::size_t x, std::size_t y) {
      return detail::prefer_eig(which, vals[x], 0.0, vals[y], 0.0);
    });

    // Spike in the sorted eigenbasis.
    std::vector<double> spike(m);
    const double beta_d = NumTraits<T>::to_double(beta);
    for (std::size_t i = 0; i < m; ++i) {
      spike[i] = beta_d * NumTraits<T>::to_double(q(m - 1, order[i]));
    }
    std::size_t nconv = 0;
    while (nconv < m &&
           std::abs(spike[nconv]) <= tol * std::abs(vals[order[nconv]])) {
      ++nconv;
    }
    out.nconverged = std::min(nconv, nev);

    const bool done = nconv >= nev || restart == opts.max_restarts;
    const std::size_t keep =
        done ? std::min(nev, m)
             : std::min(mindim + std::min(nconv, (maxdim - mindim) / 2), m - 1);

    // Rotate the basis into the sorted eigenvectors (leading `keep`),
    // staged through the workspace selection matrix.
    DenseMatrix<T>& qsel = ws.t;
    qsel.resize(m, keep);
    for (std::size_t j = 0; j < keep; ++j)
      for (std::size_t i = 0; i < m; ++i) qsel(i, j) = q(i, order[j]);
    kernels::update_basis(v, qsel, m, keep, ws.basis_scratch);

    if (done) {
      out.q = v.top_left(n, keep);
      out.r = DenseMatrix<T>(keep, keep);
      out.eig_re.resize(keep);
      out.eig_im.assign(keep, 0.0);
      for (std::size_t i = 0; i < keep; ++i) {
        out.r(i, i) = sm(order[i], order[i]);
        out.eig_re[i] = vals[order[i]];
      }
      out.converged = nconv >= nev;
      if (!out.converged) out.failure = "no convergence within restart budget";
      return out;
    }

    // New decomposition: V_keep diag + residual coupling.
    {
      T* dst = v.col(keep);
      const T* src = v.col(m);
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    }
    s.fill(T(0));
    for (std::size_t i = 0; i < keep; ++i) {
      s(i, i) = sm(order[i], order[i]);
      const double val = (i < nconv) ? 0.0 : spike[i];  // lock converged
      s(keep, i) = NumTraits<T>::from_double(val);
      s(i, keep) = s(keep, i);  // arrowhead column (enters at next expansion)
    }
    k = keep;
  }
  out.failure = "restart loop left unexpectedly";
  return out;
}

}  // namespace detail

/// Symmetric partial eigendecomposition via thick-restart Lanczos.
/// Options are shared with partialschur(); `which` must be a real ordering
/// (largest/smallest magnitude or real — all eigenvalues are real here).
/// Runs resident (OnGrid<T>) for the formats partialschur does.
template <typename T, class Op>
PartialSchurResult<T> lanczos_eigs(const Op& a, const PartialSchurOptions& opts = {}) {
  if constexpr (kGridResident<T>) {
    const detail::ResidentOp<T, Op> op(a, opts);
    return detail::to_format(detail::lanczos_core<OnGrid<T>>(op, opts));
  } else {
    return detail::lanczos_core<T>(a, opts);
  }
}

}  // namespace mfla

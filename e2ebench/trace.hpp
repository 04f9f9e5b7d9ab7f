// In-memory span recorder for the benchmark's traced pass.
//
// Every span wraps one call from the benchmark into a layer's public
// function (reference_cache_key, ReferenceCache::load/store,
// compute_reference_tiered, matrix_exceeds_range, convert, partialschur,
// the matching/error functions, JournalWriter, write_results_csv). Nothing
// is traced inside the library. Spans stay in memory and are written out
// once, after the pass.
//
// Inside partialschur the only seam the library offers is the operator:
// TimingOp wraps CsrMatrix<T>::matvec and timestamps every call together
// with the basis column it was handed. After the solve those marks tile the
// solver span into
//   solver.init     solve start -> first matvec (start vector, workspace)
//   kernels.spmv    each matvec
//   solver.expand   matvec j -> matvec j+1 of one expansion
//                   (orthogonalization + normalization of column j)
//   solver.restart  last matvec of an expansion -> first matvec of the next,
//                   and last matvec -> solve end (last orthogonalization,
//                   Hessenberg, Francis QR, reorder, update_basis)
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace e2e {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names; each is named after the src/ module whose public function
/// it wraps.
enum class Name : std::uint8_t {
  pass,               // the whole traced pass (root)
  matrix,             // core/experiment: one matrix's prerequisite + runs
  run,                // core/experiment: one (matrix, format) run
  solve_call,         // api/solver: one Solver::solve
  refcache_key,       // core/reference_cache: reference_cache_key
  refcache_load,      // core/reference_cache: ReferenceCache::load
  refcache_store,     // core/reference_cache: ReferenceCache::store
  reference_solve,    // core/reference_tier: compute_reference_tiered
  range_check,        // sparse: matrix_exceeds_range<T>
  convert,            // sparse: CsrMatrix<double>::convert<T>
  solver,             // core/krylov_schur: partialschur<T>
  solver_init,        // core/krylov_schur: before the first matvec
  spmv,               // kernels: CsrMatrix<T>::matvec
  expand,             // core/arnoldi: between matvecs of one expansion
  restart,            // dense + core/krylov_schur: between expansions
  postprocess,        // core/experiment, api/solver: results to double
  matching,           // core/matching + core/errors
  journal,            // core/results_io: JournalWriter
  csv,                // core/results_io: write_results_csv
  count_
};

inline constexpr const char* kNames[] = {
    "pass",          "experiment.matrix", "experiment.run",   "api.solve",
    "refcache.key",  "refcache.load",     "refcache.store",   "reference.solve",
    "sparse.range_check", "sparse.convert", "solver",         "solver.init",
    "kernels.spmv",  "solver.expand",     "solver.restart",   "experiment.postprocess",
    "matching",      "io.journal",        "io.csv"};
static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<std::size_t>(Name::count_));

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 for the root
  std::int32_t run = -1;     // unit id (one run or one solve), -1 outside a unit
  Name name = Name::pass;
  std::int8_t format = -1;   // FormatId of the enclosing unit, -1 outside one
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  /// Open a span as a child of the innermost open span. A span outside a
  /// unit inherits the parent's unit id and format unless given its own.
  int open(Name name, int run = -1, int format = -1) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run >= 0 || s.parent < 0 ? run : spans_[static_cast<std::size_t>(s.parent)].run;
    s.format = static_cast<std::int8_t>(
        format >= 0 || s.parent < 0 ? format : spans_[static_cast<std::size_t>(s.parent)].format);
    s.start = now_ns();
    spans_.push_back(s);
    const int idx = static_cast<int>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    stack_.pop_back();
  }

  /// Record an already finished child of `parent`.
  void add(Name name, std::int64_t start, std::int64_t end, int parent) {
    Span s = spans_[static_cast<std::size_t>(parent)];
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    spans_.push_back(s);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const Span& at(int idx) const { return spans_[static_cast<std::size_t>(idx)]; }

  /// One span per line: id parent run format name start_ns end_ns, with
  /// times relative to the root's start.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "id\tparent\trun\tformat\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%d\t%d\t%s\t%lld\t%lld\n", i, s.parent, s.run, s.format,
                   kNames[static_cast<int>(s.name)], static_cast<long long>(s.start - t0),
                   static_cast<long long>(s.end - t0));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& t, Name name, int run = -1, int format = -1)
      : t_(t), idx_(t.open(name, run, format)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const noexcept { return idx_; }

 private:
  Tracer& t_;
  int idx_;
};

struct MatvecMark {
  std::int64_t start;
  std::int64_t end;
  std::size_t column;  // basis column the operator was applied to
};

/// The operator handed to partialschur<T>: forwards to CsrMatrix<T>::matvec
/// and timestamps each call. The column comes from the x pointer: every
/// matvec reads a column of the one n x (maxdim+1) basis, and the first
/// call is column 0.
template <typename T>
class TimingOp {
 public:
  TimingOp(const mfla::CsrMatrix<T>& a, std::vector<MatvecMark>& marks) : a_(a), marks_(marks) {}

  [[nodiscard]] std::size_t rows() const noexcept { return a_.rows(); }

  void matvec(const T* x, T* y) const {
    const std::int64_t t0 = now_ns();
    a_.matvec(x, y);
    const std::int64_t t1 = now_ns();
    const auto addr = reinterpret_cast<std::uintptr_t>(x);
    if (marks_.empty()) base_ = addr;
    marks_.push_back({t0, t1, (addr - base_) / (sizeof(T) * a_.rows())});
  }

 private:
  const mfla::CsrMatrix<T>& a_;
  std::vector<MatvecMark>& marks_;
  mutable std::uintptr_t base_ = 0;
};

/// Bytes one CSR matvec touches, computed from array sizes (values,
/// column indices, row pointers, x read once, y written once). Cache
/// misses are not modelled.
template <typename T>
[[nodiscard]] double spmv_bytes(const mfla::CsrMatrix<T>& a) {
  return static_cast<double>(a.nnz() * (sizeof(T) + sizeof(std::uint32_t)) +
                             (a.rows() + 1) * sizeof(std::uint32_t) + 2 * a.rows() * sizeof(T));
}

/// Tile a finished solver span with init/spmv/expand/restart children.
inline void add_solver_children(Tracer& tr, int solver_span, const std::vector<MatvecMark>& marks) {
  const Span& s = tr.at(solver_span);
  const std::int64_t start = s.start;
  const std::int64_t end = s.end;
  if (marks.empty()) {
    tr.add(Name::solver_init, start, end, solver_span);
    return;
  }
  tr.add(Name::solver_init, start, marks.front().start, solver_span);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    tr.add(Name::spmv, marks[i].start, marks[i].end, solver_span);
    if (i + 1 < marks.size()) {
      const bool same_expansion = marks[i + 1].column == marks[i].column + 1;
      tr.add(same_expansion ? Name::expand : Name::restart, marks[i].end, marks[i + 1].start,
             solver_span);
    }
  }
  tr.add(Name::restart, marks.back().end, end, solver_span);
}

}  // namespace e2e

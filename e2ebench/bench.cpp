// e2ebench: the repository's end-to-end benchmark program.
//
// Runs one workload through the public entry points (api::Sweep,
// api::Solver) exactly as a user would, checks the outputs, and prints one
// JSON line. With --trace 1 it instead runs one untraced pass, then replays
// the same units single-threaded with a span around every layer call
// (replay.hpp) and reports per-layer numbers. run.py builds this program,
// repeats set-up in fresh processes and adds the golden-digest check; see
// README.md for the workloads and metric definitions.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--scale full|smoke] [--workdir DIR] [--setup-only]
//
// Exit codes: 0 ok, 1 an output check failed, 2 usage, 3 refused
// environment (failpoints armed or an assert-enabled build).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "core/reference_cache.hpp"
#include "core/results_io.hpp"
#include "datasets/general_corpus.hpp"
#include "datasets/graph_corpus.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "kernels/accel.hpp"
#include "kernels/simd.hpp"
#include "kernels/vector_ops.hpp"
#include "replay.hpp"
#include "support/hash.hpp"
#include "support/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace mfla;

namespace e2e {
namespace {

constexpr int kExitCheck = 1;
constexpr int kExitUsage = 2;
constexpr int kExitEnv = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  bool setup_only = false;
  std::string workdir = ".bench_work";
};

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Linear-interpolation quantile (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string digest_bytes(const std::string& bytes) {
  return Hasher().bytes(bytes.data(), bytes.size()).finish().hex();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Ordered (name -> value, unit) list, printed as the result line's metric map.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + items[i].first + "\": {\"value\": " + json_number(items[i].second.first) +
             ", \"unit\": \"" + items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

// ---------------------------------------------------------------------------
// Environment guard and provenance
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string llc_size() {
  // The highest-numbered cache index of cpu0 is the last-level cache.
  std::string size = "unknown";
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s)) break;
    size = s;
  }
  return size;
}

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string provenance_json(std::size_t threads) {
  const kernels::SimdCaps caps = kernels::simd_caps();
  const char* simd_env = std::getenv("MFLA_SIMD");
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(nproc());
  out += ", \"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"llc_size\": \"" + json_escape(llc_size()) + "\"";
  out += ", \"simd_rung\": \"" + std::string(caps.isa) + "\"";
  out += std::string(", \"lut\": ") + (kernels::lut_enabled() ? "true" : "false");
  out += ", \"MFLA_SIMD\": " +
         (simd_env != nullptr ? "\"" + json_escape(simd_env) + "\"" : std::string("null"));
  out += ", \"threads\": " + std::to_string(threads);
  return out + "}";
}

/// Build the lazily constructed 8-bit LUTs and 16-bit decode tables of
/// every format by one tiny kernel call each.
void warm_tables() {
  double sink = 0.0;
  for (const FormatInfo& f : all_formats()) {
    sink += dispatch_format(f.id, [](auto tag) {
      using T = typename decltype(tag)::type;
      const T x[2] = {NumTraits<T>::from_double(1.0), NumTraits<T>::from_double(0.5)};
      return NumTraits<T>::to_double(kernels::dot(2, x, x));
    });
  }
  if (!(sink > 0.0)) throw std::runtime_error("table warm-up produced no value");
}

/// Start every worker of the pool and let each run one task.
void warm_pool(ThreadPool& pool) {
  TaskGroup group(pool);
  for (std::size_t i = 0; i < pool.thread_count(); ++i) group.submit([] {});
  group.wait();
}

// ---------------------------------------------------------------------------
// Per-pass outcome
// ---------------------------------------------------------------------------

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  double busy = 0.0;  // Σ unit seconds (run durations + reference seconds)
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::string digest;
  std::vector<double> latencies;
  std::vector<std::string> problems;
  // What the traced replay is compared against.
  std::vector<MatrixResult> results;     // sweeps
  std::vector<std::string> unit_digests;  // solver: one per solve
};

/// Layer numbers the replay gathers beside its spans.
struct ReplayInfo {
  double wall = 0.0;
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  ReplayCounters rc;
  std::size_t dd_solves = 0;
  std::size_t dd_certified = 0;
  std::size_t promotions = 0;
  RefCacheStats cache;
  double bytes_written = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup(std::uint64_t seed, const std::string& workdir) = 0;
  virtual Pass pass(std::size_t index) = 0;
  virtual ReplayInfo replay(Tracer& tr, const Pass& untraced) = 0;
  [[nodiscard]] virtual std::size_t threads() const = 0;
  [[nodiscard]] double datasets_seconds() const { return datasets_s_; }

 protected:
  double datasets_s_ = 0.0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_run(const FormatRun& a, const FormatRun& b) {
  return a.format == b.format && a.outcome == b.outcome && a.restarts == b.restarts &&
         a.matvecs == b.matvecs && a.nconverged == b.nconverged && a.failure == b.failure &&
         same_bits(a.mean_similarity, b.mean_similarity) &&
         same_bits(a.eigenvalue_error.absolute, b.eigenvalue_error.absolute) &&
         same_bits(a.eigenvalue_error.relative, b.eigenvalue_error.relative) &&
         same_bits(a.eigenvector_error.absolute, b.eigenvector_error.absolute) &&
         same_bits(a.eigenvector_error.relative, b.eigenvector_error.relative);
}

// ---------------------------------------------------------------------------
// Sweep workloads: sweep_cold and sweep_warm_1t
// ---------------------------------------------------------------------------

/// Fisher-Yates shuffle driven by the benchmark seed.
template <typename V>
void shuffle(V& v, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.uniform_index(i)]);
}

/// The matrices a sweep workload evaluates: a fixed slice of the paper
/// corpora at their default generator seeds and size filters.
std::vector<TestMatrix> sweep_corpus(std::size_t general, std::size_t per_graph_class) {
  GeneralCorpusOptions go;
  go.count = general;
  std::vector<TestMatrix> corpus = build_general_corpus(go);
  if (per_graph_class > 0) {
    GraphCorpusOptions gro;
    gro.counts = {per_graph_class, per_graph_class, per_graph_class, per_graph_class};
    for (TestMatrix& m : build_graph_corpus(gro)) corpus.push_back(std::move(m));
  }
  return corpus;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(bool cold, bool smoke) : cold_(cold), smoke_(smoke) {
    threads_ = cold ? std::min<std::size_t>(4, nproc()) : 1;
  }

  /// The seed shuffles the order of the matrices and of the formats, which
  /// is the order the sweep submits its units in and writes its CSV rows
  /// in. Start vectors keep the default sweep seed: drawing them (or the
  /// matrices) anew changes which runs converge, and one matrix's cost by
  /// up to 2x, so a pass's cost would follow the draw and not the code.
  void setup(std::uint64_t seed, const std::string& workdir) override {
    dir_ = workdir;
    formats_ = api::evaluation_formats();
    const std::int64_t t0 = now_ns();
    if (cold_)
      corpus_ = smoke_ ? sweep_corpus(2, 0) : sweep_corpus(6, 1);
    else
      corpus_ = smoke_ ? sweep_corpus(1, 0) : sweep_corpus(4, 0);
    shuffle(corpus_, seed);
    shuffle(formats_, seed ^ 0xf0f0f0f0f0f0f0f0ull);
    datasets_s_ = seconds_since(t0);
    warm_tables();
    pool_ = std::make_unique<ThreadPool>(threads_);
    warm_pool(*pool_);
    if (!cold_) {
      // Fill the shared reference cache: one f64-only sweep stores every
      // reference the warm passes will load.
      fs::remove_all(cache_dir());
      api::Sweep fill = api::Sweep::over(corpus_);
      configure(fill, cache_dir()).formats("f64");
      const api::SweepResult r = fill.run();
      if (r.stats.reference_solves != corpus_.size())
        throw std::runtime_error("cache fill solved " + std::to_string(r.stats.reference_solves) +
                                 " references for " + std::to_string(corpus_.size()) +
                                 " matrices");
    }
  }

  Pass pass(std::size_t index) override {
    Pass p;
    const std::string pdir = dir_ + "/pass_" + std::to_string(index);
    fs::remove_all(pdir);
    fs::create_directories(pdir);
    const std::string csv = pdir + "/raw.csv";
    const std::string journal = pdir + "/journal.jsonl";
    std::vector<TestMatrix> copy = corpus_;

    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    api::Sweep sweep = api::Sweep::over(std::move(copy));
    configure(sweep, cold_ ? pdir + "/refcache" : cache_dir()).formats(formats_);
    sweep.sink(std::make_shared<api::CsvSink>(csv));
    if (cold_) sweep.checkpoint(journal);
    const api::SweepResult r = sweep.run();
    p.wall = seconds_since(t0);
    p.cpu = cpu_seconds() - cpu0;
    cfg_ = sweep.config();

    const std::string bytes = read_file(csv);
    p.digest = digest_bytes(bytes);
    const std::size_t nm = corpus_.size();
    const std::size_t nf = formats_.size();
    p.ops = nm + nm * nf;
    p.failed += r.stats.solve_faults + r.stats.reference_faults + r.stats.canceled_runs;
    p.busy = r.stats.reference_seconds + r.stats.reference_cache_seconds;
    for (const MatrixResult& m : r.results) {
      if (!m.reference_ok) {
        p.failed += 1 + nf;
        p.problems.push_back("reference failed for " + m.name + ": " + m.reference_failure);
        continue;
      }
      // One latency sample per matrix: its evaluation in every format.
      // Single runs fall into fast and slow clusters with the median run
      // between them, so a per-run p50 swings with timing noise.
      double evaluation = 0.0;
      for (const FormatRun& run : m.runs) {
        evaluation += run.duration_seconds;
        p.busy += run.duration_seconds;
        if (run.format == FormatId::float64 &&
            !(run.outcome == RunOutcome::ok && run.eigenvalue_error.relative < 1e-8)) {
          ++p.failed;
          p.problems.push_back("float64 run of " + m.name + " disagrees with its reference");
        }
      }
      p.latencies.push_back(evaluation);
    }
    if (cold_) {
      if (r.cache.stores != nm && !r.cache.degraded)
        p.problems.push_back("cold pass stored " + std::to_string(r.cache.stores) + " of " +
                             std::to_string(nm) + " references");
      const std::string jl = read_file(journal);
      const auto lines = static_cast<std::size_t>(std::count(jl.begin(), jl.end(), '\n'));
      if (lines != 1 + nm * nf)
        p.problems.push_back("journal holds " + std::to_string(lines) + " lines, expected " +
                             std::to_string(1 + nm * nf));
    } else if (r.stats.reference_solves != 0 || r.stats.reference_cache_hits != nm) {
      p.problems.push_back("warm pass solved " + std::to_string(r.stats.reference_solves) +
                           " references and loaded " +
                           std::to_string(r.stats.reference_cache_hits));
    }
    if (!p.problems.empty() && p.failed == 0) p.failed = 1;
    p.results = r.results;
    fs::remove_all(pdir);
    return p;
  }

  ReplayInfo replay(Tracer& tr, const Pass& untraced) override {
    ReplayInfo info;
    const std::string rdir = dir_ + "/replay";
    fs::remove_all(rdir);
    fs::create_directories(rdir);
    const std::string csv = rdir + "/raw.csv";
    const std::string journal_path = rdir + "/journal.jsonl";
    const std::size_t nm = corpus_.size();
    const std::size_t nf = formats_.size();

    const std::int64_t t0 = now_ns();
    const int root = tr.open(Name::pass);
    ReferenceCache cache(cold_ ? rdir + "/refcache" : cache_dir());
    std::unique_ptr<JournalWriter> journal;
    if (cold_) {
      Scope s(tr, Name::journal);
      journal = std::make_unique<JournalWriter>(journal_path, /*truncate=*/true);
      journal->write_meta(make_journal_meta(cfg_, formats_, nm));
    }
    std::vector<MatrixResult> results(nm);
    int unit = 0;
    for (std::size_t i = 0; i < nm; ++i) {
      const TestMatrix& tm = corpus_[i];
      Scope ms(tr, Name::matrix);
      MatrixResult& res = results[i];
      res.name = tm.name;
      res.klass = tm.klass;
      res.category = tm.category;
      res.n = tm.n();
      res.nnz = tm.nnz();
      Rng rng(tm.name, cfg_.seed);
      const std::vector<double> start = rng.unit_vector(tm.n());
      Hash128 key;
      {
        Scope s(tr, Name::refcache_key);
        key = reference_cache_key(tm.matrix, cfg_, start);
      }
      ReferenceSolution ref;
      bool hit = false;
      {
        Scope s(tr, Name::refcache_load);
        hit = cache.load(key, ref);
      }
      if (!hit) {
        bool solved = false;
        {
          Scope s(tr, Name::reference_solve);
          try {
            TieredReference t = compute_reference_tiered(tm, cfg_, start);
            ref = std::move(t.solution);
            info.dd_solves += t.tier.dd_attempted ? 1 : 0;
            info.dd_certified += t.tier.dd_certified ? 1 : 0;
            info.promotions += t.tier.promoted ? 1 : 0;
            solved = true;
          } catch (const std::exception& e) {
            ref = ReferenceSolution{};
            ref.failure = std::string("reference solve aborted: ") + e.what();
            ++info.failed;
          }
        }
        if (solved) {
          Scope s(tr, Name::refcache_store);
          cache.store(key, ref);
        }
      }
      ++info.ops;
      if (!ref.ok) {
        res.reference_failure = ref.failure;
        if (journal) {
          Scope s(tr, Name::journal);
          journal->write_reference_failure(tm.name, tm.n(), tm.nnz(), ref.failure);
        }
        continue;
      }
      res.reference_ok = true;
      for (const FormatId id : formats_) {
        FormatRun run = traced_run(tr, unit++, tm, ref, cfg_, start, id, info.rc);
        ++info.ops;
        if (run.outcome == RunOutcome::fault) ++info.failed;
        if (journal) {
          Scope s(tr, Name::journal);
          journal->write_run(tm.name, tm.n(), tm.nnz(), run);
        }
        res.runs.push_back(std::move(run));
      }
    }
    {
      Scope s(tr, Name::csv);
      write_results_csv(csv, results);
    }
    journal.reset();
    tr.close(root);
    info.wall = seconds_since(t0);
    info.cache = cache.stats();

    // Faithfulness: bit-equal per-run results and byte-equal CSV.
    if (digest_bytes(read_file(csv)) != untraced.digest) {
      ++info.failed;
      info.problems.push_back("traced replay CSV differs from the untraced pass");
    }
    for (std::size_t i = 0; i < nm && i < untraced.results.size(); ++i) {
      const MatrixResult& a = results[i];
      const MatrixResult& b = untraced.results[i];
      bool same = a.reference_ok == b.reference_ok && a.runs.size() == b.runs.size();
      for (std::size_t j = 0; same && j < a.runs.size(); ++j) same = same_run(a.runs[j], b.runs[j]);
      if (!same) {
        info.problems.push_back("traced replay of " + a.name + " differs from the untraced pass");
        info.failed += 1 + nf;
      }
    }
    std::error_code ec;
    info.bytes_written = static_cast<double>(fs::file_size(csv, ec)) +
                         (cold_ ? static_cast<double>(fs::file_size(journal_path, ec)) : 0.0);
    fs::remove_all(rdir);
    return info;
  }

  [[nodiscard]] std::size_t threads() const override { return threads_; }

 private:
  [[nodiscard]] std::string cache_dir() const { return dir_ + "/refcache"; }

  /// The settings every sweep of this workload shares.
  api::Sweep& configure(api::Sweep& s, const std::string& cache) {
    return s.reference_tier(ReferenceTier::dd_first).pool(pool_.get()).cache(cache);
  }

  bool cold_;
  bool smoke_;
  std::size_t threads_ = 1;
  std::string dir_;
  std::vector<FormatId> formats_;
  std::vector<TestMatrix> corpus_;
  std::unique_ptr<ThreadPool> pool_;
  ExperimentConfig cfg_;
};

// ---------------------------------------------------------------------------
// Solver workload: solver_large_lut8
// ---------------------------------------------------------------------------

/// Graph Laplacian at the top of the paper's size filter; the slot fixes
/// its generator, vertex count and generator seed.
TestMatrix large_graph(std::size_t slot, std::uint32_t n) {
  Rng rng("solver_large_lut8/" + std::to_string(slot));
  CooMatrix adj;
  std::string category;
  switch (slot % 4) {
    case 0:
      category = "smallworld";
      adj = watts_strogatz(n, 2, 0.1, rng);
      break;
    case 1:
      category = "scalefree";
      adj = barabasi_albert(n, 2, rng);
      break;
    case 2: {
      category = "road";
      const auto side = static_cast<std::uint32_t>(std::lround(std::sqrt(static_cast<double>(n))));
      adj = grid_2d(side, side, 0.05, rng);
      break;
    }
    default:
      category = "geometric";
      adj = random_geometric(n, std::sqrt(4.0 / (3.141592653589793 * n)), rng);
      break;
  }
  char name[64];
  std::snprintf(name, sizeof name, "large_%s_%zu", category.c_str(), slot);
  return make_test_matrix(name, "large", category, graph_laplacian_pipeline(adj));
}

std::string digest_eigen(const api::EigenResult& r) {
  Hasher h;
  h.u64(r.converged ? 1 : 0).u64(r.nconverged).u64(static_cast<std::uint64_t>(r.restarts));
  h.u64(r.matvecs);
  h.span(r.eigenvalues.data(), r.eigenvalues.size());
  h.span(r.eigenvalues_im.data(), r.eigenvalues_im.size());
  h.span(r.vectors.data(), r.vectors.rows() * r.vectors.cols());
  h.str(r.failure);
  return h.finish().hex();
}

/// Largest ||A v - lambda v|| over the converged pairs (symmetric input:
/// Schur vectors are eigenvectors).
double max_residual(const CsrMatrix<double>& a, const api::EigenResult& r) {
  const std::size_t n = a.rows();
  std::vector<double> y(n);
  double worst = 0.0;
  for (std::size_t j = 0; j < r.nconverged && j < r.vectors.cols(); ++j) {
    const double* v = r.vectors.col(j);
    a.matvec(v, y.data());
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = y[i] - r.eigenvalues[j] * v[i];
      s += d * d;
    }
    worst = std::max(worst, std::sqrt(s));
  }
  return worst;
}

class SolverWorkload final : public Workload {
 public:
  explicit SolverWorkload(bool smoke) : smoke_(smoke) {}

  /// The seed shuffles the order of the (graph, format) solves; the graphs
  /// themselves are fixed, for the reason SweepWorkload::setup gives.
  void setup(std::uint64_t seed, const std::string&) override {
    const std::int64_t t0 = now_ns();
    const std::vector<std::uint32_t> sizes =
        smoke_ ? std::vector<std::uint32_t>{400} : std::vector<std::uint32_t>{2400, 2800, 3200, 3600};
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      graphs_.push_back(large_graph(s, sizes[s]));
      if (graphs_.back().nnz() > 20000)
        throw std::runtime_error(graphs_.back().name + " exceeds the 20k-nnz filter");
    }
    datasets_s_ = seconds_since(t0);
    warm_tables();
    api::SolverOptions opts;
    opts.nev = 12;
    for (const FormatId id : {FormatId::ofp8_e4m3, FormatId::ofp8_e5m2, FormatId::posit8,
                              FormatId::takum8, FormatId::float32, FormatId::float64})
      handles_.push_back(api::Solver::create(id, api::SolverKind::krylov_schur, opts));
    for (std::size_t g = 0; g < graphs_.size(); ++g)
      for (std::size_t h = 0; h < handles_.size(); ++h) calls_.emplace_back(g, h);
    shuffle(calls_, seed);
  }

  Pass pass(std::size_t) override {
    Pass p;
    Hasher all;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    for (const auto& [gi, hi] : calls_) {
      const TestMatrix& g = graphs_[gi];
      const api::Solver& h = handles_[hi];
      const std::int64_t s0 = now_ns();
      std::string d;
      try {
        const api::EigenResult r = h.solve(g.matrix);
        p.latencies.push_back(seconds_since(s0));
        d = digest_eigen(r);
        if (h.format() == FormatId::float64 && r.converged && max_residual(g.matrix, r) > 1e-8) {
          ++p.failed;
          p.problems.push_back("float64 solve of " + g.name + " has a large residual");
        }
      } catch (const std::exception& e) {
        p.latencies.push_back(seconds_since(s0));
        ++p.failed;
        p.problems.push_back("solve of " + g.name + " threw: " + e.what());
      }
      ++p.ops;
      all.str(d);
      p.unit_digests.push_back(std::move(d));
    }
    p.wall = seconds_since(t0);
    p.cpu = cpu_seconds() - cpu0;
    for (const double l : p.latencies) p.busy += l;
    p.digest = all.finish().hex();
    return p;
  }

  ReplayInfo replay(Tracer& tr, const Pass& untraced) override {
    ReplayInfo info;
    const std::int64_t t0 = now_ns();
    const int root = tr.open(Name::pass);
    std::vector<std::string> digests;
    int unit = 0;
    for (const auto& [gi, hi] : calls_) {
      try {
        digests.push_back(
            digest_eigen(traced_solve(tr, unit++, handles_[hi], graphs_[gi].matrix, info.rc)));
      } catch (const std::exception&) {
        digests.emplace_back();
        ++info.failed;
      }
      ++info.ops;
    }
    tr.close(root);
    info.wall = seconds_since(t0);
    if (digests != untraced.unit_digests) {
      for (std::size_t i = 0; i < digests.size(); ++i) {
        if (i >= untraced.unit_digests.size() || digests[i] != untraced.unit_digests[i]) {
          ++info.failed;
          info.problems.push_back("traced replay of solve " + std::to_string(i) +
                                  " differs from the untraced pass");
        }
      }
    }
    return info;
  }

  [[nodiscard]] std::size_t threads() const override { return 1; }

 private:
  bool smoke_;
  std::vector<TestMatrix> graphs_;
  std::vector<api::Solver> handles_;
  std::vector<std::pair<std::size_t, std::size_t>> calls_;  // (graph, handle), seed order
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  if (name == "sweep_cold") return std::make_unique<SweepWorkload>(true, smoke);
  if (name == "sweep_warm_1t") return std::make_unique<SweepWorkload>(false, smoke);
  if (name == "solver_large_lut8") return std::make_unique<SolverWorkload>(smoke);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the spans
// ---------------------------------------------------------------------------

/// Adds every per-layer metric; returns trace.coverage.
double layer_metrics(Metrics& m, const Tracer& tr, const ReplayInfo& info, const Pass& untraced,
                     std::size_t threads, double datasets_s) {
  const auto& spans = tr.spans();
  const std::size_t ns = spans.size();
  std::vector<std::int64_t> child(ns, 0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;

  constexpr auto kN = static_cast<std::size_t>(Name::count_);
  double self[kN] = {};
  std::size_t count[kN] = {};
  std::map<int, double> solver_by_format;
  double covered = 0.0;
  double root = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    const Span& s = spans[i];
    const auto k = static_cast<std::size_t>(s.name);
    const double dur = static_cast<double>(s.end - s.start) * 1e-9;
    const double own = static_cast<double>(s.end - s.start - child[i]) * 1e-9;
    self[k] += own;
    ++count[k];
    if (s.parent < 0)
      root += dur;
    else
      covered += own;
    if (s.name == Name::solver) solver_by_format[s.format] += dur;
  }
  const auto at = [](const double* a, Name n) { return a[static_cast<std::size_t>(n)]; };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  m.add("datasets.build_s", datasets_s, "s");
  m.add("reference.solve_s", at(self, Name::reference_solve), "s");
  m.add("reference.dd_solves", static_cast<double>(info.dd_solves), "count");
  m.add("reference.promotions", static_cast<double>(info.promotions), "count");
  m.add("reference.certified_ratio",
        ratio(static_cast<double>(info.dd_certified), static_cast<double>(info.dd_solves)), "ratio");
  m.add("refcache.key_s", at(self, Name::refcache_key), "s");
  m.add("refcache.load_s", at(self, Name::refcache_load), "s");
  m.add("refcache.store_s", at(self, Name::refcache_store), "s");
  m.add("refcache.hits", static_cast<double>(info.cache.hits), "count");
  m.add("refcache.misses", static_cast<double>(info.cache.misses), "count");
  m.add("refcache.stores", static_cast<double>(info.cache.stores), "count");
  m.add("refcache.hit_ratio",
        ratio(static_cast<double>(info.cache.hits), static_cast<double>(info.cache.lookups)),
        "ratio");
  m.add("sparse.range_check_s", at(self, Name::range_check), "s");
  m.add("sparse.convert_s", at(self, Name::convert), "s");
  const double spmv_s = at(self, Name::spmv);
  m.add("kernels.spmv_s", spmv_s, "s");
  m.add("kernels.spmv_calls", static_cast<double>(count[static_cast<std::size_t>(Name::spmv)]),
        "count");
  m.add("kernels.spmv_bytes_computed", info.rc.spmv_bytes, "B");
  m.add("kernels.spmv_ops_per_byte", ratio(info.rc.spmv_flops, info.rc.spmv_bytes), "flop/B");
  m.add("solver.init_s", at(self, Name::solver_init), "s");
  m.add("solver.expand_s", at(self, Name::expand), "s");
  m.add("solver.restart_s", at(self, Name::restart), "s");
  m.add("solver.restarts", static_cast<double>(count[static_cast<std::size_t>(Name::restart)]),
        "count");
  for (const FormatId id : api::evaluation_formats()) {
    const auto it = solver_by_format.find(static_cast<int>(id));
    m.add("solve_s." + format_key(id), it == solver_by_format.end() ? 0.0 : it->second, "s");
  }
  m.add("experiment.postprocess_s", at(self, Name::postprocess), "s");
  m.add("experiment.overhead_s",
        at(self, Name::matrix) + at(self, Name::run) + at(self, Name::solve_call), "s");
  m.add("matching.s", at(self, Name::matching), "s");
  m.add("io.journal_s", at(self, Name::journal), "s");
  m.add("io.csv_s", at(self, Name::csv), "s");
  m.add("io.bytes_written", info.bytes_written, "B");
  m.add("engine.busy_s", untraced.busy, "s");
  m.add("engine.idle_frac",
        std::max(0.0, 1.0 - ratio(untraced.busy, static_cast<double>(threads) * untraced.wall)),
        "ratio");
  // A single-threaded replay is compared with the untraced pass's
  // single-thread work: its wall-clock at one thread, its busy seconds at N.
  const double base = threads == 1 ? untraced.wall : untraced.busy;
  m.add("trace.overhead_frac", ratio(info.wall, base) - 1.0, "ratio");
  m.add("trace.coverage", ratio(covered, root), "ratio");
  m.add("trace.wall_s", info.wall, "s");
  return ratio(covered, root);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload sweep_cold|sweep_warm_1t|solver_large_lut8 --seed N\n"
               "                --seconds S --trace 0|1 [--scale full|smoke] [--workdir DIR]\n"
               "                [--setup-only]\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    try {
      if (a == "--setup-only") {
        o.setup_only = true;
        continue;
      }
      const char* v = value();
      if (v == nullptr) return false;
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v);
        if (o.trace != 0 && o.trace != 1) return false;
      } else if (a == "--scale") {
        if (std::string(v) != "full" && std::string(v) != "smoke") return false;
        o.smoke = std::string(v) == "smoke";
      } else if (a == "--workdir") {
        o.workdir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

std::string problems_json(const std::vector<std::string>& problems) {
  std::string out = "[";
  for (std::size_t i = 0; i < problems.size(); ++i)
    out += (i != 0 ? ", \"" : "\"") + json_escape(problems[i]) + "\"";
  return out + "]";
}

std::string walls_json(const std::vector<Pass>& passes) {
  std::string out = "[";
  for (std::size_t i = 0; i < passes.size(); ++i)
    out += (i != 0 ? ", " : "") + json_number(passes[i].wall);
  return out + "]";
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload, o.smoke);
  if (!w) {
    usage();
    return kExitUsage;
  }
  fs::create_directories(o.workdir);

  const std::int64_t s0 = now_ns();
  w->setup(o.seed, o.workdir);
  const double setup_s = seconds_since(s0);
  if (o.setup_only) {
    std::printf("{\"setup_s\": %s}\n", json_number(setup_s).c_str());
    return 0;
  }

  std::vector<Pass> passes;
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto account = [&](const Pass& p) {
    attempted += p.ops;
    failed += p.failed;
    problems.insert(problems.end(), p.problems.begin(), p.problems.end());
    if (!passes.empty() && p.digest != passes.front().digest) {
      failed += p.ops;
      problems.push_back("pass output digest differs from the first pass");
    }
  };

  Metrics metrics;
  const std::int64_t m0 = now_ns();
  if (o.trace == 0) {
    // At least three passes, then as many more as fit in the measuring time.
    std::vector<double> wall, cpu, rate, lat;
    while (passes.size() < 3 || seconds_since(m0) + median(wall) <= o.seconds) {
      Pass p = w->pass(passes.size());
      account(p);
      wall.push_back(p.wall);
      cpu.push_back(p.cpu);
      rate.push_back(static_cast<double>(p.ops) / p.wall);
      lat.insert(lat.end(), p.latencies.begin(), p.latencies.end());
      passes.push_back(std::move(p));
    }
    metrics.add("setup_s", setup_s, "s");
    metrics.add("wall_s", median(wall), "s");
    metrics.add("runs_per_s", median(rate), "1/s");
    metrics.add("solve_p50_s", quantile(lat, 0.5), "s");
    metrics.add("solve_p90_s", quantile(lat, 0.9), "s");
    metrics.add("cpu_s", median(cpu), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr, "e2ebench: %s seed %llu: %zu passes, %zu latency samples\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed), passes.size(),
                 lat.size());
  } else {
    Pass p = w->pass(0);
    account(p);
    passes.push_back(std::move(p));
    Tracer tr;
    ReplayInfo info = w->replay(tr, passes.front());
    attempted += info.ops;
    failed += info.failed;
    problems.insert(problems.end(), info.problems.begin(), info.problems.end());
    const double coverage =
        layer_metrics(metrics, tr, info, passes.front(), w->threads(), w->datasets_seconds());
    if (coverage < 0.95) {
      ++failed;
      problems.push_back("layer self times cover only " + json_number(coverage) +
                         " of the traced pass");
    }
    const std::string spans_path = o.workdir + "/spans.tsv";
    if (!tr.write_tsv(spans_path)) problems.push_back("cannot write " + spans_path);
  }
  const bool correct = failed == 0 && problems.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s, \"workload\": "
      "\"%s\", \"seed\": %llu, \"scale\": \"%s\", \"trace\": %d, \"setup_s\": %s, \"passes\": %zu, "
      "\"digest\": \"%s\", \"error_rate\": %s, \"pass_walls\": %s, \"problems\": %s, "
      "\"provenance\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.json().c_str(), o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.smoke ? "smoke" : "full", o.trace,
      json_number(setup_s).c_str(), passes.size(), passes.front().digest.c_str(),
      json_number(attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0)
          .c_str(),
      walls_json(passes).c_str(), problems_json(problems).c_str(),
      provenance_json(w->threads()).c_str());
  return correct ? 0 : kExitCheck;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options o;
  if (!e2e::parse(argc, argv, o)) {
    e2e::usage();
    return e2e::kExitUsage;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "e2ebench: refusing to measure an assert-enabled build (NDEBUG unset)\n");
  return e2e::kExitEnv;
#endif
  if (std::getenv("MFLA_FAILPOINTS") != nullptr) {
    std::fprintf(stderr, "e2ebench: refusing to run with MFLA_FAILPOINTS set\n");
    return e2e::kExitEnv;
  }
  try {
    return e2e::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return e2e::kExitCheck;
  }
}

#include "api/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/report.hpp"
#include "core/results_io.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mfla::api {

std::vector<FormatId> evaluation_formats() {
  std::vector<FormatId> out;
  for (const auto& f : all_formats()) {
    if (!f.reference_only) out.push_back(f.id);
  }
  return out;
}

const MatrixResult* SweepResult::find(const std::string& matrix) const {
  for (const auto& mr : results) {
    if (mr.name == matrix) return &mr;
  }
  return nullptr;
}

const FormatRun* SweepResult::find(const std::string& matrix, FormatId format) const {
  const MatrixResult* mr = find(matrix);
  if (mr == nullptr) return nullptr;
  for (const auto& run : mr->runs) {
    if (run.format == format) return &run;
  }
  return nullptr;
}

Sweep Sweep::over(std::vector<TestMatrix> corpus) {
  Sweep s;
  s.corpus_ = std::move(corpus);
  return s;
}

Sweep& Sweep::formats(std::vector<FormatId> ids) {
  formats_ = std::move(ids);
  return *this;
}

Sweep& Sweep::formats(const std::string& keys) {
  formats_ = parse_format_keys(keys);
  return *this;
}

Sweep& Sweep::nev(std::size_t n) {
  cfg_.nev = n;
  return *this;
}
Sweep& Sweep::buffer(std::size_t b) {
  cfg_.buffer = b;
  return *this;
}
Sweep& Sweep::which(Which w) {
  cfg_.which = w;
  return *this;
}
Sweep& Sweep::restarts(int r) {
  cfg_.max_restarts = r;
  return *this;
}
Sweep& Sweep::reference_restarts(int r) {
  cfg_.reference_max_restarts = r;
  return *this;
}
Sweep& Sweep::seed(std::uint64_t s) {
  cfg_.seed = s;
  return *this;
}
Sweep& Sweep::reference_tier(ReferenceTier tier) {
  cfg_.reference_tier = tier;
  return *this;
}
Sweep& Sweep::reference_tier(const std::string& name) {
  cfg_.reference_tier = reference_tier_from_name(name);
  return *this;
}
Sweep& Sweep::config(const ExperimentConfig& cfg) {
  cfg_ = cfg;
  return *this;
}

Sweep& Sweep::threads(std::size_t n) {
  threads_ = n;
  return *this;
}
Sweep& Sweep::pool(ThreadPool* p) {
  pool_ = p;
  return *this;
}
Sweep& Sweep::cancel(const std::atomic<bool>* flag) {
  cancel_ = flag;
  return *this;
}
Sweep& Sweep::checkpoint(std::string path) {
  checkpoint_ = std::move(path);
  return *this;
}
Sweep& Sweep::resume(bool on) {
  resume_ = on;
  return *this;
}
Sweep& Sweep::cache(std::string directory) {
  cache_dir_ = std::move(directory);
  return *this;
}
Sweep& Sweep::cache(ReferenceCache* shared) {
  shared_cache_ = shared;
  return *this;
}

Sweep& Sweep::sink(std::shared_ptr<ResultSink> s) {
  if (s != nullptr) sinks_.push_back(std::move(s));
  return *this;
}


namespace {

/// The checkpoint journal needs its directory; create it (mkdir -p
/// semantics, like the engine would) and fail the build-state validation
/// early when it still does not exist — e.g. a path routed through a file.
void require_checkpoint_directory(const std::string& path) {
  ensure_parent_directory(path);
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return;  // bare filename: current directory
  std::error_code ec;
  if (!std::filesystem::is_directory(parent, ec))
    throw std::invalid_argument("Sweep: checkpoint directory '" + parent.string() +
                                "' does not exist and cannot be created");
}

std::string meta_mismatch_message(const JournalMeta& found, const JournalMeta& expected) {
  std::string msg =
      "checkpoint journal was written by a different sweep "
      "(nev/buffer/restarts/seed/formats/corpus size differ); ";
  msg += "expected formats [" + expected.formats + "] over " +
         std::to_string(expected.matrix_count) + " matrices, found [" + found.formats +
         "] over " + std::to_string(found.matrix_count) +
         " — rerun without --resume to start over";
  return msg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The task-parallel engine behind one Sweep::run().
///
/// Work is decomposed at (matrix, format) granularity onto a work-stealing
/// thread pool: each matrix contributes one prerequisite task (the tiered
/// reference solve) which, on success, fans out one task per format sharing
/// the reference and start vector. A slow reference solve or a skewed
/// corpus does not serialize the tail: format runs of one matrix proceed
/// while another matrix's reference is still being solved.
///
/// Determinism: every run depends only on (matrix, config). The start vector
/// comes from an RNG stream seeded by the matrix name, results land in
/// preallocated (matrix, format) slots, and the output order is the
/// dataset/format-list order — so results are bit-identical for any thread
/// count and any scheduling interleaving.
///
/// Durability: with a checkpoint, every completed run is appended to a JSONL
/// journal (core/results_io.hpp) and flushed; on resume the journal is
/// replayed and only missing runs are scheduled. A matrix whose runs are all
/// journaled does not even recompute (or look up) its reference.
///
/// Events: one mutex serializes the counters and every sink call, so sinks
/// see a strictly increasing `done` count and never run concurrently.
class Engine {
 public:
  Engine(const std::vector<TestMatrix>& dataset, const std::vector<FormatId>& formats,
         const ExperimentConfig& cfg, const std::vector<std::shared_ptr<ResultSink>>& sinks,
         const std::atomic<bool>* cancel, ReferenceCache* cache)
      : dataset_(dataset),
        formats_(formats),
        cfg_(cfg),
        sinks_(sinks),
        cancel_(cancel),
        cache_(cache),
        slots_(dataset.size(), std::vector<FormatRun>(formats.size())),
        journaled_(dataset.size(), std::vector<char>(formats.size(), 0)),
        ref_failure_(dataset.size()),
        pending_(dataset.size()) {}

  SweepStats stats;          ///< final once execute() returns
  std::size_t executed = 0;  ///< format runs this invocation completed

  /// Open the journal at `path`; with `resume`, first adopt the runs and
  /// reference failures it already records.
  void open_journal(const std::string& path, bool resume) {
    std::map<std::string, std::size_t> matrix_index;
    for (std::size_t i = 0; i < dataset_.size(); ++i) {
      if (!matrix_index.emplace(dataset_[i].name, i).second)
        throw std::runtime_error("checkpointing requires unique matrix names; duplicate '" +
                                 dataset_[i].name + "'");
    }
    std::map<FormatId, std::size_t> format_index;
    for (std::size_t j = 0; j < formats_.size(); ++j) format_index.emplace(formats_[j], j);

    const JournalMeta meta = make_journal_meta(cfg_, formats_, dataset_.size());
    bool journal_has_meta = false;
    if (resume) {
      const JournalContents jc = read_journal(path);
      if (jc.has_meta && !(jc.meta == meta))
        throw std::runtime_error(meta_mismatch_message(jc.meta, meta));
      journal_has_meta = jc.has_meta;
      stats.journal_discarded_lines = jc.skipped_lines;
      // Entries whose matrix name is unknown, or whose recorded dimensions
      // no longer match the dataset (the matrix changed on disk since the
      // journal was written), are ignored: those runs recompute.
      for (const auto& [name, rf] : jc.reference_failures) {
        const auto it = matrix_index.find(name);
        if (it == matrix_index.end()) continue;
        const TestMatrix& tm = dataset_[it->second];
        if (rf.n != tm.n() || rf.nnz != tm.nnz()) continue;
        ref_failure_[it->second] = rf.failure;
        ++stats.journal_replayed_failures;
      }
      for (const auto& [key, jr] : jc.runs) {
        const auto mi = matrix_index.find(key.first);
        const auto fi = format_index.find(key.second);
        if (mi == matrix_index.end() || fi == format_index.end()) continue;
        const TestMatrix& tm = dataset_[mi->second];
        if (jr.n != tm.n() || jr.nnz != tm.nnz()) continue;
        slots_[mi->second][fi->second] = jr.run;
        journaled_[mi->second][fi->second] = 1;
        ++stats.journal_replayed_runs;
      }
    }
    journal_ = std::make_unique<JournalWriter>(path, /*truncate=*/!resume);
    stats.journal_truncated_bytes = static_cast<std::size_t>(journal_->truncated_bytes());
    // Also (re)write the meta when resuming a journal whose meta line was
    // torn by a crash during the very first write — otherwise the journal
    // would never regain one and later resumes would skip validation.
    if (!resume || !journal_has_meta) journal_->write_meta(meta);
  }

  /// Run every pending (matrix, format) on `shared_pool`, or on a pool of
  /// `threads` workers of its own when that is null, and wait for them.
  /// Rethrows the first task exception (journal I/O, a throwing sink).
  void execute(ThreadPool* shared_pool, std::size_t threads) {
    // A matrix with a journaled reference failure or with every format
    // journaled needs no reference solve at all.
    for (std::size_t i = 0; i < dataset_.size(); ++i) {
      if (ref_failure_[i]) continue;
      for (std::size_t j = 0; j < formats_.size(); ++j) {
        if (!journaled_[i][j]) pending_[i].push_back(j);
      }
      total_ += pending_[i].size();
    }
    t0_ = std::chrono::steady_clock::now();
    if (total_ == 0) return;

    // Either pool works: the TaskGroup scopes waiting (and error
    // propagation) to this sweep's tasks, whatever else shares the pool.
    std::unique_ptr<ThreadPool> own_pool;
    if (shared_pool == nullptr) own_pool = std::make_unique<ThreadPool>(threads);
    TaskGroup group(shared_pool != nullptr ? *shared_pool : *own_pool);
    for (std::size_t i = 0; i < dataset_.size(); ++i) {
      if (!pending_[i].empty()) group.submit([this, &group, i] { run_matrix(group, i); });
    }
    group.wait();
  }

  /// The results in dataset/format order; call once, after execute().
  [[nodiscard]] std::vector<MatrixResult> results() {
    std::vector<MatrixResult> results(dataset_.size());
    for (std::size_t i = 0; i < dataset_.size(); ++i) {
      const TestMatrix& tm = dataset_[i];
      MatrixResult& res = results[i];
      res.name = tm.name;
      res.klass = tm.klass;
      res.category = tm.category;
      res.n = tm.n();
      res.nnz = tm.nnz();
      res.reference_ok = !ref_failure_[i];
      if (ref_failure_[i])
        res.reference_failure = *ref_failure_[i];
      else
        res.runs = std::move(slots_[i]);
    }
    return results;
  }

 private:
  // Cooperative cancellation: checked before work starts, never mid-solve.
  [[nodiscard]] bool canceled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// The per-matrix prerequisite task: the reference solve, then one task
  /// per pending format sharing its result — or retirement of the matrix.
  void run_matrix(TaskGroup& group, std::size_t i) {
    if (canceled()) {
      count_canceled(pending_[i].size());
      return;
    }
    const TestMatrix& tm = dataset_[i];
    Rng rng(tm.name, cfg_.seed);
    auto start = std::make_shared<const std::vector<double>>(rng.unit_vector(tm.n()));
    std::shared_ptr<const ReferenceSolution> ref = solve_reference(tm, *start);
    if (!ref->ok) {
      ref_failure_[i] = ref->failure;
      if (journal_) journal_->write_reference_failure(tm.name, tm.n(), tm.nnz(), ref->failure);
      retire_matrix(tm, ref->failure, pending_[i].size());
      return;
    }
    for (const std::size_t j : pending_[i])
      group.submit([this, start, ref, i, j] { run_format(i, j, *start, *ref); });
  }

  /// Served from the persistent cache when one is attached and holds a
  /// valid entry for this exact (matrix bits, config incl. tier, start
  /// vector); solved (and stored) otherwise. Cached solutions are
  /// bit-identical to fresh ones, so every downstream format run is
  /// byte-identical either way.
  [[nodiscard]] std::shared_ptr<const ReferenceSolution> solve_reference(
      const TestMatrix& tm, const std::vector<double>& start) {
    auto ref = std::make_shared<ReferenceSolution>();
    bool cache_hit = false;
    Hash128 key;
    ReferenceTierTelemetry tier;
    const auto t0 = std::chrono::steady_clock::now();
    if (cache_ != nullptr) {
      key = reference_cache_key(tm.matrix, cfg_, start);
      cache_hit = cache_->load(key, *ref);
    }
    if (!cache_hit) {
      // Solve guard: a reference solve that *aborts* (exception —
      // breakdown, bad_alloc, injected fault) retires its matrix as a
      // recorded reference failure instead of killing the sweep. Unlike
      // genuine non-convergence the aborted result is NOT cached: the abort
      // may be transient (memory pressure, a fault injection) and must not
      // poison warm reruns.
      try {
        if (int err = MFLA_FAILPOINT("engine.reference"); err != 0)
          throw std::runtime_error(std::string("injected reference error: ") +
                                   std::strerror(err));
        TieredReference tr = compute_reference_tiered(tm, cfg_, start);
        *ref = std::move(tr.solution);
        tier = std::move(tr.tier);
        if (cache_ != nullptr) cache_->store(key, *ref);
      } catch (const std::exception& e) {
        *ref = ReferenceSolution{};
        ref->failure = std::string("reference solve aborted: ") + e.what();
        report_fault(tm, nullptr, e.what());
      }
    }
    count_reference(cache_hit, seconds_since(t0), tier);
    return ref;
  }

  void run_format(std::size_t i, std::size_t j, const std::vector<double>& start,
                  const ReferenceSolution& ref) {
    if (canceled()) {
      count_canceled(1);
      return;
    }
    const TestMatrix& tm = dataset_[i];
    // Solve guard: a format run that aborts (NaN/Inf-driven solver
    // exception, bad_alloc, injected fault) becomes a journaled
    // RunOutcome::fault row — one lost data point, not a lost sweep.
    const auto t0 = std::chrono::steady_clock::now();
    FormatRun& run = slots_[i][j];
    try {
      if (int err = MFLA_FAILPOINT("engine.format_run"); err != 0)
        throw std::runtime_error(std::string("injected format-run error: ") +
                                 std::strerror(err));
      run = run_format_dynamic(tm, ref, cfg_, start, formats_[j]);
    } catch (const std::exception& e) {
      run = FormatRun{};
      run.format = formats_[j];
      run.outcome = RunOutcome::fault;
      run.failure = std::string("solve aborted: ") + e.what();
      run.duration_seconds = seconds_since(t0);
      report_fault(tm, &formats_[j], e.what());
    }
    if (journal_) journal_->write_run(tm.name, tm.n(), tm.nnz(), run);
    complete_run(tm, run);
  }

  // -- counters and sink events, each under mtx_ ---------------------------

  void count_reference(bool cache_hit, double seconds, const ReferenceTierTelemetry& tier) {
    std::lock_guard<std::mutex> lk(mtx_);
    if (cache_hit) {
      ++stats.reference_cache_hits;
      stats.reference_cache_seconds += seconds;
      return;
    }
    ++stats.reference_solves;
    stats.reference_seconds += seconds;
    if (tier.dd_attempted) {
      ++stats.reference_dd_solves;
      stats.reference_dd_seconds += tier.dd_seconds;
      if (tier.dd_certified) ++stats.reference_dd_certified;
      if (tier.promoted) ++stats.reference_promotions;
    }
    stats.reference_f128_seconds += tier.f128_seconds;
  }

  void count_canceled(std::size_t runs) {
    std::lock_guard<std::mutex> lk(mtx_);
    stats.canceled_runs += runs;
  }

  /// `format` is the faulted run's format, or null for a reference solve.
  void report_fault(const TestMatrix& tm, const FormatId* format, const std::string& what) {
    std::lock_guard<std::mutex> lk(mtx_);
    ++(format != nullptr ? stats.solve_faults : stats.reference_faults);
    if (sinks_.empty()) return;
    FaultEvent e;
    e.matrix = tm.name;
    e.n = tm.n();
    e.nnz = tm.nnz();
    e.stage = format != nullptr ? "format" : "reference";
    if (format != nullptr) e.format = format_info(*format).name;
    e.what = what;
    for (const auto& s : sinks_) s->on_fault(e);
  }

  void complete_run(const TestMatrix& tm, const FormatRun& run) {
    std::lock_guard<std::mutex> lk(mtx_);
    stats.format_seconds += run.duration_seconds;
    ++executed;
    RunEvent e;
    advance(e, 1);
    if (sinks_.empty()) return;
    e.matrix = tm.name;
    e.n = tm.n();
    e.nnz = tm.nnz();
    e.run = run;
    for (const auto& s : sinks_) s->on_run(e);
  }

  /// A failed reference retires the matrix: its pending runs count as done.
  void retire_matrix(const TestMatrix& tm, const std::string& failure, std::size_t runs) {
    std::lock_guard<std::mutex> lk(mtx_);
    ReferenceEvent e;
    advance(e, runs);
    if (sinks_.empty()) return;
    e.matrix = tm.name;
    e.n = tm.n();
    e.nnz = tm.nnz();
    e.failure = failure;
    for (const auto& s : sinks_) s->on_reference(e);
  }

  /// Caller holds mtx_: count `runs` more as done and stamp the progress.
  template <class Event>
  void advance(Event& e, std::size_t runs) {
    completed_ += runs;
    e.done = completed_;
    e.total = total_;
    e.elapsed_seconds = seconds_since(t0_);
  }

  const std::vector<TestMatrix>& dataset_;
  const std::vector<FormatId>& formats_;
  const ExperimentConfig& cfg_;
  const std::vector<std::shared_ptr<ResultSink>>& sinks_;
  const std::atomic<bool>* cancel_;
  ReferenceCache* cache_;

  // slots_[i][j] is written by at most one task. journaled_[i][j] marks
  // slots filled from the journal on resume (consumed before scheduling).
  // ref_failure_[i] is set once matrix i is retired by a failed reference.
  std::vector<std::vector<FormatRun>> slots_;
  std::vector<std::vector<char>> journaled_;
  std::vector<std::optional<std::string>> ref_failure_;
  std::vector<std::vector<std::size_t>> pending_;  // format indices still to run
  std::unique_ptr<JournalWriter> journal_;

  std::mutex mtx_;  // guards stats, executed, completed_ and every sink call
  std::size_t completed_ = 0;
  std::size_t total_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

SweepResult Sweep::run() {
  if (corpus_.empty())
    throw std::invalid_argument("Sweep: no matrices; pass a non-empty corpus to Sweep::over");
  if (formats_.empty())
    throw std::invalid_argument("Sweep: no formats; call formats(...) before run()");
  for (std::size_t i = 0; i < formats_.size(); ++i) {
    for (std::size_t j = i + 1; j < formats_.size(); ++j) {
      if (formats_[i] == formats_[j])
        throw std::invalid_argument("Sweep: duplicate format '" +
                                    format_info(formats_[i]).name + "' in format list");
    }
  }
  if (cfg_.nev == 0) throw std::invalid_argument("Sweep: nev must be positive");
  require_bounded("Sweep", "nev", cfg_.nev, kMaxEigenpairs);
  require_bounded("Sweep", "buffer", cfg_.buffer, kMaxEigenpairs);
  require_bounded("Sweep", "max_restarts", cfg_.max_restarts, kMaxRestarts);
  require_bounded("Sweep", "reference_max_restarts", cfg_.reference_max_restarts, kMaxRestarts);
  if (resume_ && checkpoint_.empty())
    throw std::invalid_argument("Sweep: resume() requires checkpoint(path)");
  if (!checkpoint_.empty()) require_checkpoint_directory(checkpoint_);

  std::unique_ptr<ReferenceCache> own_cache;
  ReferenceCache* cache = shared_cache_;
  if (cache == nullptr && !cache_dir_.empty()) {
    own_cache = std::make_unique<ReferenceCache>(cache_dir_);
    cache = own_cache.get();
  }

  SweepMeta meta;
  meta.config = cfg_;
  meta.formats = formats_;
  meta.matrix_count = corpus_.size();
  meta.total_runs = corpus_.size() * formats_.size();
  meta.threads = threads_;
  meta.checkpoint_path = checkpoint_;
  meta.resume = resume_;
  meta.cache_dir = cache_dir_;
  for (const auto& s : sinks_) s->on_meta(meta);

  const auto t0 = std::chrono::steady_clock::now();
  Engine engine(corpus_, formats_, cfg_, sinks_, cancel_, cache);
  if (!checkpoint_.empty()) engine.open_journal(checkpoint_, resume_);
  engine.execute(pool_, threads_);
  SweepResult out;
  out.results = engine.results();
  out.elapsed_seconds = seconds_since(t0);
  out.stats = engine.stats;
  out.executed_runs = engine.executed;
  if (cache != nullptr) {
    out.cache_attached = true;
    out.cache = cache->stats();
  }
  for (const auto& s : sinks_) s->on_done(out);
  return out;
}

}  // namespace mfla::api

// Task-parallel experiment engine.
//
// Work is decomposed at (matrix, format) granularity onto a work-stealing
// thread pool: each matrix contributes one prerequisite task (the float128
// reference solve) which, on success, fans out one task per format sharing
// the cached reference and start vector. Compared with the former
// one-OpenMP-loop-over-matrices design, a single slow reference solve or a
// skewed corpus no longer serializes the tail: format runs of one matrix
// proceed while another matrix's reference is still being solved.
//
// Determinism: every run depends only on (matrix, config). The start vector
// comes from an RNG stream seeded by the matrix name, results are written
// into preallocated (matrix, format) slots, and the output ordering is the
// dataset/format-list ordering — so results are bit-identical for any
// thread count and any scheduling interleaving.
//
// Durability: with a checkpoint path set, every completed run is appended
// to a JSONL journal (core/results_io.hpp) and flushed; on --resume the
// journal is replayed and only missing runs are scheduled. A matrix whose
// runs are all journaled does not even recompute its reference.
#include "core/experiment.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "arith/quad.hpp"
#include "core/reference_cache.hpp"
#include "core/results_io.hpp"
#include "support/failpoint.hpp"
#include "support/thread_pool.hpp"

namespace mfla {

ReferenceSolution compute_reference(const TestMatrix& tm, const ExperimentConfig& cfg,
                                    const std::vector<double>& start) {
  ReferenceSolution ref;
  const CsrMatrix<Quad> aq = tm.matrix.convert<Quad>();
  PartialSchurOptions opts;
  opts.nev = cfg.nev + cfg.buffer;
  opts.which = cfg.which;
  opts.tolerance = kReferenceTolerance;
  opts.max_restarts = cfg.reference_max_restarts;
  opts.start_vector = &start;
  const auto r = partialschur<Quad>(aq, opts);
  if (!r.converged) {
    ref.failure = r.failure.empty() ? "reference did not converge" : r.failure;
    return ref;
  }
  const std::size_t k = cfg.nev + cfg.buffer;
  ref.values.assign(r.eig_re.begin(), r.eig_re.begin() + static_cast<long>(k));
  ref.vectors = DenseMatrix<double>(tm.n(), k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < tm.n(); ++i)
      ref.vectors(i, j) = NumTraits<Quad>::to_double(r.q(i, j));
  ref.ok = true;
  return ref;
}

FormatRun run_format_dynamic(const TestMatrix& tm, const ReferenceSolution& ref,
                             const ExperimentConfig& cfg, const std::vector<double>& start,
                             FormatId id) {
  const auto t0 = std::chrono::steady_clock::now();
  FormatRun run = dispatch_format(id, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_format<T>(tm, ref, cfg, start, id);
  });
  run.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return run;
}

namespace {

/// Mutable per-sweep state shared by the scheduled tasks.
struct EngineState {
  // slots[i][j] is written by at most one task. done[i][j] marks slots
  // filled from the journal during resume (consumed before scheduling).
  std::vector<std::vector<FormatRun>> slots;
  std::vector<std::vector<char>> done;
  std::vector<char> ref_failed;
  std::vector<std::string> ref_failures;

  std::unique_ptr<JournalWriter> journal;

  std::atomic<std::size_t> completed{0};
  std::size_t total = 0;
  std::chrono::steady_clock::time_point t0;
  std::mutex event_mtx;  // serializes on_run / on_reference_failure / on_fault

  // Sweep counters (low write rate: once per reference / format run).
  SweepStats sweep;
  std::mutex stats_mtx;

  void count_reference(bool cache_hit, double seconds, const ReferenceTierTelemetry* tier) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    if (cache_hit) {
      ++sweep.reference_cache_hits;
      sweep.reference_cache_seconds += seconds;
    } else {
      ++sweep.reference_solves;
      sweep.reference_seconds += seconds;
      if (tier != nullptr) {
        if (tier->dd_attempted) {
          ++sweep.reference_dd_solves;
          sweep.reference_dd_seconds += tier->dd_seconds;
          if (tier->dd_certified) ++sweep.reference_dd_certified;
          if (tier->promoted) ++sweep.reference_promotions;
        }
        sweep.reference_f128_seconds += tier->f128_seconds;
      }
    }
  }

  void count_format(double seconds) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    sweep.format_seconds += seconds;
  }

  void count_solve_fault(bool reference) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    if (reference)
      ++sweep.reference_faults;
    else
      ++sweep.solve_faults;
  }

  void count_canceled(std::size_t runs) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    sweep.canceled_runs += runs;
  }

  /// Serialized (under the same lock as on_run) so sinks see fault events
  /// interleaved consistently with the run stream.
  void notify_fault(const ScheduleOptions& sched, const TestMatrix& tm, const SolveFault& f) {
    if (!sched.on_fault) return;
    std::lock_guard<std::mutex> lk(event_mtx);
    sched.on_fault(tm, f);
  }

  /// Increment the done count by `add` and, with any observer installed,
  /// snapshot the progress under the lock so callbacks see a monotonically
  /// increasing done count and are serialized with each other.
  ExperimentProgress advance(std::size_t add) {
    ExperimentProgress p;
    p.done = completed.fetch_add(add, std::memory_order_relaxed) + add;
    p.total = total;
    p.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return p;
  }

  void complete_run(const ScheduleOptions& sched, const TestMatrix& tm, const FormatRun& run) {
    if (!sched.on_run) {
      completed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::lock_guard<std::mutex> lk(event_mtx);
    sched.on_run(tm, run, advance(1));
  }

  void complete_reference_failure(const ScheduleOptions& sched, const TestMatrix& tm,
                                  const std::string& failure, std::size_t retired) {
    if (!sched.on_reference_failure) {
      completed.fetch_add(retired, std::memory_order_relaxed);
      return;
    }
    std::lock_guard<std::mutex> lk(event_mtx);
    sched.on_reference_failure(tm, failure, advance(retired));
  }
};

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

}  // namespace

std::vector<MatrixResult> run_experiment(const std::vector<TestMatrix>& dataset,
                                         const std::vector<FormatId>& formats,
                                         const ExperimentConfig& cfg,
                                         const ScheduleOptions& sched) {
  const std::size_t nm = dataset.size();
  const std::size_t nf = formats.size();

  EngineState st;
  st.slots.assign(nm, std::vector<FormatRun>(nf));
  st.done.assign(nm, std::vector<char>(nf, 0));
  st.ref_failed.assign(nm, 0);
  st.ref_failures.resize(nm);

  std::map<std::string, std::size_t> matrix_index;
  const bool checkpointing = !sched.checkpoint_path.empty();
  if (checkpointing) {
    for (std::size_t i = 0; i < nm; ++i) {
      if (!matrix_index.emplace(dataset[i].name, i).second)
        throw std::runtime_error("checkpointing requires unique matrix names; duplicate '" +
                                 dataset[i].name + "'");
    }
    std::map<FormatId, std::size_t> format_index;
    for (std::size_t j = 0; j < nf; ++j) format_index.emplace(formats[j], j);

    const JournalMeta meta = make_journal_meta(cfg, formats, nm);
    bool journal_has_meta = false;
    if (sched.resume) {
      const JournalContents jc = read_journal(sched.checkpoint_path);
      if (jc.has_meta && !(jc.meta == meta))
        throw std::runtime_error(meta_mismatch_message(jc.meta, meta));
      journal_has_meta = jc.has_meta;
      st.sweep.journal_discarded_lines = jc.skipped_lines;
      // Entries whose matrix name is unknown, or whose recorded dimensions
      // no longer match the dataset (the matrix changed on disk since the
      // journal was written), are ignored: those runs recompute.
      for (const auto& [name, rf] : jc.reference_failures) {
        const auto it = matrix_index.find(name);
        if (it == matrix_index.end()) continue;
        const TestMatrix& tm = dataset[it->second];
        if (rf.n != tm.n() || rf.nnz != tm.nnz()) continue;
        st.ref_failed[it->second] = 1;
        st.ref_failures[it->second] = rf.failure;
        ++st.sweep.journal_replayed_failures;
      }
      for (const auto& [key, jr] : jc.runs) {
        const auto mi = matrix_index.find(key.first);
        const auto fi = format_index.find(key.second);
        if (mi == matrix_index.end() || fi == format_index.end()) continue;
        const TestMatrix& tm = dataset[mi->second];
        if (jr.n != tm.n() || jr.nnz != tm.nnz()) continue;
        st.slots[mi->second][fi->second] = jr.run;
        st.done[mi->second][fi->second] = 1;
        ++st.sweep.journal_replayed_runs;
      }
    }
    st.journal = std::make_unique<JournalWriter>(sched.checkpoint_path, /*truncate=*/!sched.resume);
    st.sweep.journal_truncated_bytes =
        static_cast<std::size_t>(st.journal->truncated_bytes());
    // Also (re)write the meta when resuming a journal whose meta line was
    // torn by a crash during the very first write — otherwise the journal
    // would never regain one and later resumes would skip validation.
    if (!sched.resume || !journal_has_meta) st.journal->write_meta(meta);
  }

  // Pending work per matrix: format indices still to run. A matrix with a
  // journaled reference failure or with every format journaled needs no
  // reference solve at all.
  std::vector<std::vector<std::size_t>> pending(nm);
  for (std::size_t i = 0; i < nm; ++i) {
    if (st.ref_failed[i]) continue;
    for (std::size_t j = 0; j < nf; ++j) {
      if (!st.done[i][j]) pending[i].push_back(j);
    }
    st.total += pending[i].size();
  }
  st.t0 = std::chrono::steady_clock::now();

  // Cooperative cancellation: checked before work starts, never mid-solve.
  const auto canceled = [&sched] {
    return sched.cancel != nullptr && sched.cancel->load(std::memory_order_relaxed);
  };

  if (st.total > 0) {
    // Run either on a pool of our own or on a caller-shared one; in both
    // cases the TaskGroup scopes waiting (and error propagation) to this
    // invocation's tasks only.
    std::unique_ptr<ThreadPool> own_pool;
    if (sched.pool == nullptr) own_pool = std::make_unique<ThreadPool>(sched.threads);
    TaskGroup group(sched.pool != nullptr ? *sched.pool : *own_pool);
    for (std::size_t i = 0; i < nm; ++i) {
      if (pending[i].empty()) continue;
      group.submit([&group, &canceled, &st, &dataset, &formats, &cfg, &sched, &pending, i] {
        const TestMatrix& tm = dataset[i];
        if (canceled()) {
          st.count_canceled(pending[i].size());
          return;
        }
        Rng rng(tm.name, cfg.seed);
        auto start = std::make_shared<const std::vector<double>>(rng.unit_vector(tm.n()));
        // Prerequisite: the tiered reference solve — served from the
        // persistent cache when one is attached and holds a valid entry for
        // this exact (matrix bits, config incl. tier, start vector),
        // recomputed (and re-stored) otherwise. Cached solutions are
        // bit-identical to fresh ones, so every downstream format run is
        // byte-identical either way. The solution is published const: it is
        // shared read-only across every format-run task of this matrix.
        std::shared_ptr<const ReferenceSolution> ref;
        {
          auto fresh = std::make_shared<ReferenceSolution>();
          bool cache_hit = false;
          Hash128 key;
          ReferenceTierTelemetry tier;
          const auto rt0 = std::chrono::steady_clock::now();
          if (sched.ref_cache != nullptr) {
            key = reference_cache_key(tm.matrix, cfg, *start);
            cache_hit = sched.ref_cache->load(key, *fresh);
          }
          if (!cache_hit) {
            // Solve guard: a reference solve that *aborts* (exception —
            // breakdown, bad_alloc, injected fault) retires its matrix as a
            // recorded reference failure instead of killing the sweep.
            // Unlike genuine non-convergence the aborted result is NOT
            // cached: the abort may be transient (memory pressure, a fault
            // injection) and must not poison warm reruns.
            try {
              if (int err = MFLA_FAILPOINT("engine.reference"); err != 0)
                throw std::runtime_error(std::string("injected reference error: ") +
                                         std::strerror(err));
              TieredReference tr = compute_reference_tiered(tm, cfg, *start);
              *fresh = std::move(tr.solution);
              tier = std::move(tr.tier);
              if (sched.ref_cache != nullptr) sched.ref_cache->store(key, *fresh);
            } catch (const std::exception& e) {
              *fresh = ReferenceSolution{};
              fresh->failure = std::string("reference solve aborted: ") + e.what();
              st.count_solve_fault(/*reference=*/true);
              SolveFault fault;
              fault.stage = "reference";
              fault.what = e.what();
              st.notify_fault(sched, tm, fault);
            }
          }
          const double seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - rt0).count();
          st.count_reference(cache_hit, seconds, cache_hit ? nullptr : &tier);
          ref = std::move(fresh);
        }
        if (!ref->ok) {
          st.ref_failed[i] = 1;
          st.ref_failures[i] = ref->failure;
          if (st.journal)
            st.journal->write_reference_failure(tm.name, tm.n(), tm.nnz(), ref->failure);
          st.complete_reference_failure(sched, tm, ref->failure, pending[i].size());
          return;
        }
        for (const std::size_t j : pending[i]) {
          group.submit([&canceled, &st, &dataset, &formats, &cfg, &sched, start, ref, i, j] {
            const TestMatrix& tmj = dataset[i];
            if (canceled()) {
              st.count_canceled(1);
              return;
            }
            // Solve guard: a format run that aborts (NaN/Inf-driven solver
            // exception, bad_alloc, injected fault) becomes a journaled
            // RunOutcome::fault row — one lost data point, not a lost sweep.
            const auto ft0 = std::chrono::steady_clock::now();
            FormatRun run;
            try {
              if (int err = MFLA_FAILPOINT("engine.format_run"); err != 0)
                throw std::runtime_error(std::string("injected format-run error: ") +
                                         std::strerror(err));
              run = run_format_dynamic(tmj, *ref, cfg, *start, formats[j]);
            } catch (const std::exception& e) {
              run = FormatRun{};
              run.format = formats[j];
              run.outcome = RunOutcome::fault;
              run.failure = std::string("solve aborted: ") + e.what();
              run.duration_seconds =
                  std::chrono::duration<double>(std::chrono::steady_clock::now() - ft0)
                      .count();
              st.count_solve_fault(/*reference=*/false);
              SolveFault fault;
              fault.format = formats[j];
              fault.what = e.what();
              st.notify_fault(sched, tmj, fault);
            }
            st.slots[i][j] = std::move(run);
            st.count_format(st.slots[i][j].duration_seconds);
            if (st.journal) st.journal->write_run(tmj.name, tmj.n(), tmj.nnz(), st.slots[i][j]);
            st.complete_run(sched, tmj, st.slots[i][j]);
          });
        }
      });
    }
    group.wait();  // rethrows the first task exception of THIS sweep, if any
  }
  if (sched.stats != nullptr) *sched.stats = st.sweep;

  // Assemble in dataset/format order, independent of completion order.
  std::vector<MatrixResult> results(nm);
  for (std::size_t i = 0; i < nm; ++i) {
    MatrixResult& res = results[i];
    res.name = dataset[i].name;
    res.klass = dataset[i].klass;
    res.category = dataset[i].category;
    res.n = dataset[i].n();
    res.nnz = dataset[i].nnz();
    if (st.ref_failed[i]) {
      res.reference_ok = false;
      res.reference_failure = st.ref_failures[i];
      continue;
    }
    res.reference_ok = true;
    res.runs = std::move(st.slots[i]);
  }
  return results;
}

}  // namespace mfla

// The fluent sweep facade: the single supported entry point for running
// the paper's multi-format evaluation pipeline.
//
//   auto result = api::Sweep::over(corpus)
//                     .formats("f16,bf16,p16,t16")
//                     .nev(10).buffer(2).restarts(80)
//                     .threads(0)
//                     .checkpoint("out/journal.jsonl")
//                     .cache("out/refcache")
//                     .sink(std::make_shared<api::CsvSink>("out/raw.csv"))
//                     .run();
//
// Sweep validates the configuration up front (std::invalid_argument with a
// precise message instead of a half-started sweep) and then IS the
// task-parallel engine (api/sweep.cpp): it schedules the per-matrix stages
// of core/experiment.hpp on a work-stealing pool, journals and resumes,
// consults the reference cache, honors cancellation, and builds every
// ResultSink event itself. Results are byte-identical to the serial
// compute_reference_tiered + run_format_dynamic pipeline for any thread
// count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/sinks.hpp"
#include "core/experiment.hpp"
#include "core/reference_cache.hpp"
#include "datasets/test_matrix.hpp"

namespace mfla {
class ThreadPool;  // support/thread_pool.hpp
}  // namespace mfla

namespace mfla::api {

/// The paper's evaluation lineup: every registry format except the
/// float128 reference, in presentation order.
[[nodiscard]] std::vector<FormatId> evaluation_formats();

/// Everything one sweep produced.
struct SweepResult {
  std::vector<MatrixResult> results;  ///< dataset order, one entry per matrix
  SweepStats stats;                   ///< engine counters (solves, cache hits, stage seconds)
  bool cache_attached = false;
  RefCacheStats cache;           ///< zeroed unless cache_attached
  double elapsed_seconds = 0.0;  ///< wall-clock of run()
  /// Format runs executed by this invocation (0 when a resume replayed
  /// everything from the journal).
  std::size_t executed_runs = 0;

  [[nodiscard]] const MatrixResult* find(const std::string& matrix) const;
  [[nodiscard]] const FormatRun* find(const std::string& matrix, FormatId format) const;
};

class Sweep {
 public:
  /// Start a builder over a corpus (takes ownership; pass std::move for
  /// large datasets).
  [[nodiscard]] static Sweep over(std::vector<TestMatrix> corpus);

  /// Formats to evaluate, in run order. The string overload parses
  /// comma-separated registry keys ("f16,bf16,t16") and throws
  /// std::invalid_argument on unknown or duplicate keys.
  Sweep& formats(std::vector<FormatId> ids);
  Sweep& formats(const std::string& keys);

  // -- numerical configuration (ExperimentConfig) ---------------------------
  Sweep& nev(std::size_t n);
  Sweep& buffer(std::size_t b);
  Sweep& which(Which w);
  Sweep& restarts(int r);
  Sweep& reference_restarts(int r);
  Sweep& seed(std::uint64_t s);
  /// Reference arithmetic tier (default ReferenceTier::f128_only, today's
  /// behavior). The string overload accepts the CLI spellings "f128_only"
  /// and "dd_first" and throws std::invalid_argument on anything else.
  Sweep& reference_tier(ReferenceTier tier);
  Sweep& reference_tier(const std::string& name);
  Sweep& config(const ExperimentConfig& cfg);  ///< wholesale override

  // -- engine configuration -------------------------------------------------
  Sweep& threads(std::size_t n);  ///< 0 = hardware concurrency
  /// Run on an externally owned ThreadPool instead of a per-run() pool —
  /// how the serving daemon multiplexes many tenant sweeps over one pool.
  /// Overrides threads(); results stay bit-identical either way.
  Sweep& pool(ThreadPool* p);
  /// Cooperative cancellation flag (not owned). Once it reads true, queued
  /// work is skipped (SweepStats::canceled_runs) while in-flight runs
  /// finish and are journaled — the drain path shared by the daemon's
  /// SIGTERM handling and the CLI's interrupt handling.
  Sweep& cancel(const std::atomic<bool>* flag);
  /// JSONL checkpoint journal (core/results_io.hpp): every completed run
  /// is appended and flushed. Requires unique matrix names in the corpus.
  Sweep& checkpoint(std::string path);
  /// Reuse the runs the checkpoint already records instead of recomputing
  /// them; its meta line must match this sweep's config, formats and
  /// corpus size. Without resume() an existing checkpoint is truncated.
  Sweep& resume(bool on = true);
  /// Persistent reference cache in `directory`. A matrix whose runs are all
  /// journaled retires before its reference task, so it never touches it.
  Sweep& cache(std::string directory);
  /// Attach an externally owned ReferenceCache (shared across concurrent
  /// sweeps; it is concurrency-safe). Overrides cache(directory).
  Sweep& cache(ReferenceCache* shared);

  // -- observers ------------------------------------------------------------
  /// Add a sink; events fan out to every sink in registration order, one
  /// event at a time (api/sinks.hpp).
  Sweep& sink(std::shared_ptr<ResultSink> s);

  /// Validate and run. Throws std::invalid_argument on builder-state
  /// errors (empty corpus/formats, duplicate formats, nev == 0, resume
  /// without checkpoint, checkpoint directory that cannot exist) before
  /// any work starts; engine errors (journal meta mismatch, I/O failures)
  /// propagate as std::runtime_error.
  [[nodiscard]] SweepResult run();

  // Introspection (used by tests and the CLI).
  [[nodiscard]] const ExperimentConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<FormatId>& format_list() const noexcept { return formats_; }
  [[nodiscard]] const std::vector<TestMatrix>& corpus() const noexcept { return corpus_; }

 private:
  Sweep() = default;

  std::vector<TestMatrix> corpus_;
  std::vector<FormatId> formats_;
  ExperimentConfig cfg_;
  std::size_t threads_ = 0;
  ThreadPool* pool_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;
  std::string checkpoint_;
  bool resume_ = false;
  std::string cache_dir_;
  ReferenceCache* shared_cache_ = nullptr;
  std::vector<std::shared_ptr<ResultSink>> sinks_;
};

}  // namespace mfla::api

// The ResultSink pipeline: one composable observer interface behind every
// output path of a sweep.
//
// A sweep emits a typed event stream — `on_meta` once before work starts,
// `on_run` per format run completed by this invocation, `on_reference` per
// failed float128 reference solve, `on_fault` per solver abort the engine's
// solve guard converted into a structured failure, `on_done` once with the
// assembled SweepResult. The engine serializes on_run/on_reference/on_fault
// under one lock, so sinks observe a monotonically increasing `done` count
// and never run concurrently with themselves or each other.
//
// Provided sinks: CsvSink (raw results CSV, byte-identical to
// write_results_csv), MemorySink (records everything, for tests and
// in-process consumers), ProgressSink (stderr progress line with ETA),
// MultiSink (fan-out). The event journal is written by the engine itself
// (Sweep::checkpoint), not by a sink. Sweep::sink() already fans out, so MultiSink is for nesting
// pipelines inside code that only accepts a single sink.
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arith/format_registry.hpp"
#include "core/experiment.hpp"
#include "core/results_io.hpp"

namespace mfla::api {

struct SweepResult;  // api/sweep.hpp

/// Sweep identity, delivered once before any run event.
struct SweepMeta {
  ExperimentConfig config;
  std::vector<FormatId> formats;
  std::size_t matrix_count = 0;
  /// Size of the whole sweep (matrix_count * formats). With resume, fewer
  /// runs may execute; run events carry the per-invocation total.
  std::size_t total_runs = 0;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  std::string checkpoint_path;
  bool resume = false;
  std::string cache_dir;
};

/// One completed (matrix, format) evaluation. Journal-replayed runs are not
/// re-announced; `done`/`total` count this invocation's work only.
struct RunEvent {
  std::string matrix;
  std::size_t n = 0;
  std::size_t nnz = 0;
  FormatRun run;
  std::size_t done = 0;
  std::size_t total = 0;
  double elapsed_seconds = 0.0;
};

/// A failed reference solve; the matrix is retired and its pending format
/// runs are already counted into `done`.
struct ReferenceEvent {
  std::string matrix;
  std::size_t n = 0;
  std::size_t nnz = 0;
  std::string failure;
  std::size_t done = 0;
  std::size_t total = 0;
  double elapsed_seconds = 0.0;
};

/// The engine's solve guard caught a solver abort (exception) and recorded
/// it instead of propagating. For stage "format" the structured
/// RunOutcome::fault run still arrives through on_run right after; for
/// stage "reference" the matrix retires through on_reference.
struct FaultEvent {
  std::string matrix;
  std::size_t n = 0;
  std::size_t nnz = 0;
  std::string stage;   // "format" | "reference"
  std::string format;  // format name; empty for stage "reference"
  std::string what;    // captured exception message
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void on_meta(const SweepMeta&) {}
  virtual void on_run(const RunEvent&) {}
  virtual void on_reference(const ReferenceEvent&) {}
  virtual void on_fault(const FaultEvent&) {}
  virtual void on_done(const SweepResult&) {}
};

/// Fan every event out to a list of child sinks, in registration order.
class MultiSink final : public ResultSink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<std::shared_ptr<ResultSink>> sinks);
  MultiSink& add(std::shared_ptr<ResultSink> sink);

  void on_meta(const SweepMeta& m) override;
  void on_run(const RunEvent& e) override;
  void on_reference(const ReferenceEvent& e) override;
  void on_fault(const FaultEvent& e) override;
  void on_done(const SweepResult& r) override;

 private:
  std::vector<std::shared_ptr<ResultSink>> sinks_;
};

/// Writes the raw per-run results CSV at on_done — byte-identical to
/// write_results_csv over the same results. A canceled sweep
/// (SweepStats::canceled_runs != 0) writes nothing: a partial CSV is
/// indistinguishable from a complete one, so the only durable artifact of
/// an interrupted sweep is its resumable checkpoint journal.
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::string path);
  void on_done(const SweepResult& r) override;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// True when on_done skipped the write because the sweep was canceled.
  [[nodiscard]] bool skipped_incomplete() const noexcept { return skipped_; }

 private:
  std::string path_;
  bool skipped_ = false;
};

/// Records every event in arrival order; for tests and in-process
/// consumers. Internally locked, so it is safe even outside the engine's
/// serialization guarantee.
class MemorySink final : public ResultSink {
 public:
  enum class EventKind { meta, run, reference, fault, done };

  void on_meta(const SweepMeta& m) override;
  void on_run(const RunEvent& e) override;
  void on_reference(const ReferenceEvent& e) override;
  void on_fault(const FaultEvent& e) override;
  void on_done(const SweepResult& r) override;

  [[nodiscard]] std::vector<EventKind> order() const;
  [[nodiscard]] bool has_meta() const;
  [[nodiscard]] SweepMeta meta() const;
  [[nodiscard]] std::vector<RunEvent> runs() const;
  [[nodiscard]] std::vector<ReferenceEvent> references() const;
  [[nodiscard]] std::vector<FaultEvent> faults() const;
  [[nodiscard]] bool done() const;
  [[nodiscard]] std::vector<MatrixResult> results() const;

 private:
  mutable std::mutex mtx_;
  std::vector<EventKind> order_;
  bool has_meta_ = false;
  SweepMeta meta_;
  std::vector<RunEvent> runs_;
  std::vector<ReferenceEvent> references_;
  std::vector<FaultEvent> faults_;
  bool done_ = false;
  std::vector<MatrixResult> results_;
};

/// Renders the classic `runs done/total (pct) elapsed eta` line. On a TTY
/// it overwrites in place (carriage return) and finishes with a newline;
/// on anything else — a CI log, a pipe, a redirected file — it emits one
/// plain line per 10% milestone instead, so logs don't fill up with
/// \r-spam.
class ProgressSink final : public ResultSink {
 public:
  /// How to render. Auto (the default) asks isatty() about the stream.
  enum class Mode { auto_detect, tty, plain };

  explicit ProgressSink(std::FILE* stream = stderr, Mode mode = Mode::auto_detect);
  void on_run(const RunEvent& e) override;
  void on_reference(const ReferenceEvent& e) override;

 private:
  void render(std::size_t done, std::size_t total, double elapsed_seconds);

  std::FILE* stream_;
  bool tty_ = false;
  std::size_t last_decile_ = 0;  // plain mode: highest 10% milestone printed
};

}  // namespace mfla::api

// Persistence of raw experiment results.
//
//  * CSV: one row per (matrix, format) run with outcome, errors and solver
//    statistics — the MuFoLAB-style raw data behind the figures, so
//    distributions can be re-binned offline.
//  * JSONL journal: the experiment engine's durable checkpoint. One line is
//    appended (and flushed) per completed event — a `meta` header describing
//    the sweep, a `run` line per finished (matrix, format) evaluation, and a
//    `reference` line per failed float128 reference solve. A sweep killed
//    mid-flight leaves at worst one torn final line, which the reader skips;
//    `--resume` then replays the journal and schedules only the missing
//    runs. Values round-trip exactly (%.17g; non-finite values are written
//    as Infinity/-Infinity/NaN, which both our reader and Python's json
//    module accept).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "support/jsonl.hpp"

namespace mfla {

/// Write raw per-run results. Columns:
/// matrix,class,category,n,nnz,format,outcome,eig_abs,eig_rel,vec_abs,
/// vec_rel,similarity,nconv,restarts,matvecs
/// A matrix, class or category holding a comma, a quote or a line break is
/// quoted per RFC 4180; every other field is written verbatim.
void write_results_csv(const std::string& path, const std::vector<MatrixResult>& results);

/// Read back a results CSV written by write_results_csv. Only the fields
/// needed to rebuild distributions are restored (errors, outcome, format).
/// A malformed row throws std::runtime_error naming its 1-based line.
[[nodiscard]] std::vector<MatrixResult> read_results_csv(const std::string& path);

[[nodiscard]] const char* outcome_name(RunOutcome o) noexcept;
[[nodiscard]] RunOutcome outcome_from_name(const std::string& s);

// ---------------------------------------------------------------------------
// JSONL checkpoint journal
// ---------------------------------------------------------------------------

/// Identity of a sweep; a journal may only be resumed by an invocation with
/// an identical meta (same numerical config, format list and corpus size).
struct JournalMeta {
  std::size_t nev = 0;
  std::size_t buffer = 0;
  int which = 0;  // static_cast<int>(ExperimentConfig::which)
  int max_restarts = 0;
  int reference_max_restarts = 0;
  std::uint64_t seed = 0;
  /// static_cast<int>(ExperimentConfig::reference_tier); journals written
  /// before the tier existed read back as 0 == f128_only, their behavior.
  int reference_tier = 0;
  std::string formats;  // comma-joined format names in run order
  std::size_t matrix_count = 0;

  friend bool operator==(const JournalMeta&, const JournalMeta&) = default;
};

[[nodiscard]] JournalMeta make_journal_meta(const ExperimentConfig& cfg,
                                            const std::vector<FormatId>& formats,
                                            std::size_t matrix_count);

/// Append-only journal writer. Thread-safe; every line is flushed so a
/// killed process loses at most the line being written. Write failures
/// (disk full, file removed) throw IoError — checkpoints must never be
/// lost silently.
class JournalWriter {
 public:
  /// Opens `path` (creating parent directories). With truncate=false the
  /// file is opened for append, first physically truncating any torn
  /// trailing garbage back to the last complete line.
  JournalWriter(const std::string& path, bool truncate);

  void write_meta(const JournalMeta& meta);
  void write_reference_failure(const std::string& matrix, std::size_t n, std::size_t nnz,
                               const std::string& failure);
  void write_run(const std::string& matrix, std::size_t n, std::size_t nnz,
                 const FormatRun& run);

  /// Bytes of torn trailing garbage discarded when opening for append.
  [[nodiscard]] std::uint64_t truncated_bytes() const { return truncated_bytes_; }

 private:
  void append_line(const std::string& line);

  std::ofstream out_;
  std::mutex mtx_;
  std::uint64_t truncated_bytes_ = 0;
};

/// A run record: one per-format run, stamped with its matrix's name and
/// dimensions so a resume can reject entries for a matrix whose contents
/// changed on disk.
struct JournalRun {
  std::string matrix;
  std::size_t n = 0;
  std::size_t nnz = 0;
  FormatRun run;
};

/// A reference record: a failed reference solve that retired its matrix.
struct JournalReferenceFailure {
  std::string matrix;
  std::size_t n = 0;
  std::size_t nnz = 0;
  std::string failure;
};

// ---------------------------------------------------------------------------
// Record codec. The meta, run and reference records have one field list
// each, defined here: the journal writes the records as they are, and the
// serve protocol (serve/protocol.hpp) streams the same records with its own
// extras appended (total_runs, replayed). Decoding is strict — a record
// missing any field, `failure` included, throws std::invalid_argument.
// ---------------------------------------------------------------------------

/// Start a record line holding every field of the record, in order; the
/// caller may append extra fields before JsonLine::finish(). `version` is
/// the writer's schema version (the journal's or the protocol's).
[[nodiscard]] jsonl::JsonLine meta_record(const JournalMeta& meta, int version);
[[nodiscard]] jsonl::JsonLine run_record(const std::string& matrix, std::size_t n,
                                         std::size_t nnz, const FormatRun& run);
[[nodiscard]] jsonl::JsonLine reference_record(const std::string& matrix, std::size_t n,
                                               std::size_t nnz, const std::string& failure);

[[nodiscard]] JournalMeta meta_from_record(const std::map<std::string, std::string>& obj);
[[nodiscard]] JournalRun run_from_record(const std::map<std::string, std::string>& obj);
[[nodiscard]] JournalReferenceFailure reference_from_record(
    const std::map<std::string, std::string>& obj);

/// Everything a journal recorded, keyed for resume lookups. Torn or
/// otherwise unparseable lines are counted, not fatal.
struct JournalContents {
  bool has_meta = false;
  JournalMeta meta;
  std::map<std::string, JournalReferenceFailure> reference_failures;  // by matrix name
  std::map<std::pair<std::string, FormatId>, JournalRun> runs;
  std::size_t skipped_lines = 0;
};

/// Read a journal; a missing file yields empty contents.
[[nodiscard]] JournalContents read_journal(const std::string& path);

}  // namespace mfla

#include "core/results_io.hpp"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/report.hpp"
#include "support/failpoint.hpp"
#include "support/jsonl.hpp"

namespace mfla {

const char* outcome_name(RunOutcome o) noexcept {
  switch (o) {
    case RunOutcome::ok: return "ok";
    case RunOutcome::no_convergence: return "omega";
    case RunOutcome::range_exceeded: return "sigma";
    case RunOutcome::fault: return "fault";
  }
  return "unknown";
}

RunOutcome outcome_from_name(const std::string& s) {
  if (s == "ok") return RunOutcome::ok;
  if (s == "omega") return RunOutcome::no_convergence;
  if (s == "sigma") return RunOutcome::range_exceeded;
  if (s == "fault") return RunOutcome::fault;
  throw std::invalid_argument("unknown outcome '" + s + "'");
}

namespace {

constexpr std::array<const char*, 15> kCsvColumns = {
    "matrix",  "class",   "category", "n",          "nnz",   "format",   "outcome", "eig_abs",
    "eig_rel", "vec_abs", "vec_rel",  "similarity", "nconv", "restarts", "matvecs"};

/// RFC 4180: a field holding a comma, a quote or a line break is written
/// quoted, its quotes doubled; every other field is written as is.
void write_csv_field(std::ostream& out, const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) {
    out << field;
    return;
  }
  out << '"';
  for (const char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

/// Read one RFC 4180 record into `fields`. A quoted field may hold commas,
/// doubled quotes and line breaks, so a record can span several physical
/// lines; `line` counts the lines consumed. Returns false at end of input.
bool read_csv_record(std::istream& in, std::size_t& line, std::vector<std::string>& fields) {
  std::string text;
  if (!std::getline(in, text)) return false;
  const std::size_t first_line = ++line;
  fields.clear();
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0;; ++i) {
    if (i == text.size()) {
      if (!quoted) break;
      std::string more;
      if (!std::getline(in, more))
        throw std::runtime_error("results csv: line " + std::to_string(first_line) +
                                 ": unterminated quoted field");
      ++line;
      text += '\n';
      text += more;
    }
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        field += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return true;
}

/// A numeric CSV field, or std::invalid_argument naming its column.
template <class Parse>
auto csv_number(const std::vector<std::string>& f, std::size_t col, Parse parse) {
  try {
    return parse(f[col]);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("bad ") + kCsvColumns[col] + " '" + f[col] + "'");
  }
}

std::size_t to_size(const std::string& s) { return static_cast<std::size_t>(std::stoull(s)); }
double to_double(const std::string& s) { return std::stod(s); }
int to_int(const std::string& s) { return std::stoi(s); }

/// Fold one data row into `results` (rows of a matrix share its entry).
void parse_results_row(const std::vector<std::string>& f,
                       std::map<std::string, std::size_t>& index,
                       std::vector<MatrixResult>& results) {
  if (f.size() != kCsvColumns.size())
    throw std::invalid_argument("expected " + std::to_string(kCsvColumns.size()) +
                                " fields, found " + std::to_string(f.size()));
  const bool reference_failed = f[6] == "reference_failed";
  auto [it, inserted] = index.try_emplace(f[0], results.size());
  if (inserted) {
    MatrixResult mr;
    mr.name = f[0];
    mr.klass = f[1];
    mr.category = f[2];
    mr.n = csv_number(f, 3, to_size);
    mr.nnz = csv_number(f, 4, to_size);
    mr.reference_ok = !reference_failed;
    results.push_back(mr);
  }
  MatrixResult& mr = results[it->second];
  if (reference_failed) {
    mr.reference_ok = false;
    return;
  }
  FormatRun run;
  run.format = format_from_name(f[5]);
  run.outcome = outcome_from_name(f[6]);
  if (run.outcome == RunOutcome::ok) {
    run.eigenvalue_error.absolute = csv_number(f, 7, to_double);
    run.eigenvalue_error.relative = csv_number(f, 8, to_double);
    run.eigenvector_error.absolute = csv_number(f, 9, to_double);
    run.eigenvector_error.relative = csv_number(f, 10, to_double);
    run.mean_similarity = csv_number(f, 11, to_double);
  }
  run.nconverged = csv_number(f, 12, to_size);
  run.restarts = csv_number(f, 13, to_int);
  run.matvecs = csv_number(f, 14, to_size);
  mr.runs.push_back(run);
}

}  // namespace

void write_results_csv(const std::string& path, const std::vector<MatrixResult>& results) {
  ensure_parent_directory(path);
  std::ofstream out(path);
  if (int err = MFLA_FAILPOINT("csv.write"); err != 0)
    throw IoError("results csv: cannot write '" + path + "': " + std::strerror(err));
  if (!out) throw IoError("results csv: cannot open '" + path + "' for writing");
  out.precision(17);
  for (std::size_t c = 0; c < kCsvColumns.size(); ++c) out << (c ? "," : "") << kCsvColumns[c];
  out << '\n';
  const auto write_matrix = [&out](const MatrixResult& mr) {
    write_csv_field(out, mr.name);
    out << ',';
    write_csv_field(out, mr.klass);
    out << ',';
    write_csv_field(out, mr.category);
    out << ',' << mr.n << ',' << mr.nnz;
  };
  for (const auto& mr : results) {
    if (!mr.reference_ok) {
      write_matrix(mr);
      out << ",-,reference_failed,,,,,,,,\n";
      continue;
    }
    for (const auto& run : mr.runs) {
      write_matrix(mr);
      out << ',' << format_info(run.format).name << ',' << outcome_name(run.outcome) << ','
          << run.eigenvalue_error.absolute << ',' << run.eigenvalue_error.relative << ','
          << run.eigenvector_error.absolute << ',' << run.eigenvector_error.relative << ','
          << run.mean_similarity << ',' << run.nconverged << ',' << run.restarts << ','
          << run.matvecs << '\n';
    }
  }
  out.flush();
  // Losing the raw CSV to a full disk must be loud — it is the product of
  // the whole sweep.
  if (!out) throw IoError("results csv: write to '" + path + "' failed (disk full?)");
}

std::vector<MatrixResult> read_results_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("results csv: cannot open '" + path + "'");
  std::size_t line = 0;
  std::vector<std::string> f;
  if (!read_csv_record(in, line, f)) throw std::runtime_error("results csv: empty file");
  std::map<std::string, std::size_t> index;
  std::vector<MatrixResult> results;
  while (true) {
    const std::size_t row_line = line + 1;
    if (!read_csv_record(in, line, f)) break;
    if (f.size() == 1 && f[0].empty()) continue;  // blank line
    try {
      parse_results_row(f, index, results);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("results csv: line " + std::to_string(row_line) + ": " + e.what());
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// JSONL checkpoint journal
// ---------------------------------------------------------------------------

// The JSON building/parsing itself lives in support/jsonl.hpp — the serve
// protocol speaks the same dialect and shares the implementation.
using jsonl::field_num;
using jsonl::field_num_or;
using jsonl::field_str;
using jsonl::field_u64;
using jsonl::field_u64_or;
using jsonl::JsonLine;

/// Schema version stamped into the journal's meta record.
constexpr int kJournalVersion = 1;

JournalMeta make_journal_meta(const ExperimentConfig& cfg, const std::vector<FormatId>& formats,
                              std::size_t matrix_count) {
  JournalMeta m;
  m.nev = cfg.nev;
  m.buffer = cfg.buffer;
  m.which = static_cast<int>(cfg.which);
  m.max_restarts = cfg.max_restarts;
  m.reference_max_restarts = cfg.reference_max_restarts;
  m.seed = cfg.seed;
  m.reference_tier = static_cast<int>(cfg.reference_tier);
  for (const FormatId id : formats) {
    if (!m.formats.empty()) m.formats += ',';
    m.formats += format_info(id).name;
  }
  m.matrix_count = matrix_count;
  return m;
}

JournalWriter::JournalWriter(const std::string& path, bool truncate) {
  ensure_parent_directory(path);
  // A sweep killed mid-write can leave trailing garbage — at worst one torn
  // final line without a newline. Before appending, physically truncate the
  // file back to its last complete line so the next record never glues onto
  // a torn fragment and the garbage is gone for good (not just skipped on
  // every future read).
  if (!truncate) {
    std::ifstream probe(path, std::ios::binary);
    if (probe) {
      std::uint64_t pos = 0, keep = 0;  // keep = end of last complete line
      char buf[4096];
      while (probe.read(buf, sizeof buf) || probe.gcount() > 0) {
        const std::streamsize got = probe.gcount();
        for (std::streamsize i = 0; i < got; ++i)
          if (buf[i] == '\n') keep = pos + static_cast<std::uint64_t>(i) + 1;
        pos += static_cast<std::uint64_t>(got);
        if (got < static_cast<std::streamsize>(sizeof buf)) break;
      }
      probe.close();
      if (keep < pos) {
        truncated_bytes_ = pos - keep;
        std::error_code ec;
        std::filesystem::resize_file(path, keep, ec);
        if (ec)
          throw IoError("journal: cannot truncate torn tail of '" + path +
                        "': " + ec.message());
      }
    }
  }
  if (int err = MFLA_FAILPOINT("journal.open"); err != 0)
    throw IoError("journal: cannot open '" + path + "': " + std::strerror(err));
  const auto mode = truncate ? std::ios::out | std::ios::trunc : std::ios::out | std::ios::app;
  out_.open(path, mode);
  if (!out_) throw IoError("journal: cannot open '" + path + "' for writing");
}

void JournalWriter::append_line(const std::string& line) {
  std::lock_guard<std::mutex> lk(mtx_);
  if (int err = MFLA_FAILPOINT("journal.append"); err != 0)
    throw IoError(std::string("journal: write failed: ") + std::strerror(err));
  out_ << line << '\n';
  if (MFLA_FAILPOINT("journal.flush") != 0) out_.setstate(std::ios::failbit);
  out_.flush();
  // Surface write failures (e.g. disk full) instead of silently dropping
  // checkpoint records — the engine propagates this out of Sweep::run().
  if (!out_) throw IoError("journal: write failed (disk full or file removed?)");
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

JsonLine meta_record(const JournalMeta& meta, int version) {
  JsonLine j;
  j.str("type", "meta")
      .integer("version", version)
      .uint("nev", meta.nev)
      .uint("buffer", meta.buffer)
      .integer("which", meta.which)
      .integer("restarts", meta.max_restarts)
      .integer("ref_restarts", meta.reference_max_restarts)
      .uint("seed", meta.seed)
      .integer("ref_tier", meta.reference_tier)
      .str("formats", meta.formats)
      .uint("matrices", meta.matrix_count);
  return j;
}

JsonLine run_record(const std::string& matrix, std::size_t n, std::size_t nnz,
                    const FormatRun& run) {
  JsonLine j;
  j.str("type", "run")
      .str("matrix", matrix)
      .uint("n", n)
      .uint("nnz", nnz)
      .str("format", format_info(run.format).name)
      .str("outcome", outcome_name(run.outcome))
      .num("eig_abs", run.eigenvalue_error.absolute)
      .num("eig_rel", run.eigenvalue_error.relative)
      .num("vec_abs", run.eigenvector_error.absolute)
      .num("vec_rel", run.eigenvector_error.relative)
      .num("similarity", run.mean_similarity)
      .uint("nconv", run.nconverged)
      .integer("restarts", run.restarts)
      .uint("matvecs", run.matvecs)
      .num("duration", run.duration_seconds)
      .str("failure", run.failure);
  return j;
}

JsonLine reference_record(const std::string& matrix, std::size_t n, std::size_t nnz,
                          const std::string& failure) {
  JsonLine j;
  j.str("type", "reference").str("matrix", matrix).uint("n", n).uint("nnz", nnz).str("failure",
                                                                                     failure);
  return j;
}

JournalMeta meta_from_record(const std::map<std::string, std::string>& obj) {
  JournalMeta m;
  m.nev = field_u64(obj, "nev");
  m.buffer = field_u64(obj, "buffer");
  m.which = static_cast<int>(field_u64(obj, "which"));
  m.max_restarts = static_cast<int>(field_u64(obj, "restarts"));
  m.reference_max_restarts = static_cast<int>(field_u64(obj, "ref_restarts"));
  m.seed = field_u64(obj, "seed");
  m.reference_tier = static_cast<int>(field_u64_or(obj, "ref_tier", 0));
  m.formats = field_str(obj, "formats");
  m.matrix_count = field_u64(obj, "matrices");
  return m;
}

JournalRun run_from_record(const std::map<std::string, std::string>& obj) {
  JournalRun jr;
  jr.matrix = field_str(obj, "matrix");
  jr.n = field_u64(obj, "n");
  jr.nnz = field_u64(obj, "nnz");
  FormatRun& run = jr.run;
  run.format = format_from_name(field_str(obj, "format"));
  run.outcome = outcome_from_name(field_str(obj, "outcome"));
  run.eigenvalue_error.absolute = field_num(obj, "eig_abs");
  run.eigenvalue_error.relative = field_num(obj, "eig_rel");
  run.eigenvector_error.absolute = field_num(obj, "vec_abs");
  run.eigenvector_error.relative = field_num(obj, "vec_rel");
  run.mean_similarity = field_num(obj, "similarity");
  run.nconverged = field_u64(obj, "nconv");
  run.restarts = static_cast<int>(field_num(obj, "restarts"));
  run.matvecs = field_u64(obj, "matvecs");
  run.duration_seconds = field_num_or(obj, "duration", 0.0);
  run.failure = field_str(obj, "failure");
  return jr;
}

JournalReferenceFailure reference_from_record(const std::map<std::string, std::string>& obj) {
  JournalReferenceFailure rf;
  rf.matrix = field_str(obj, "matrix");
  rf.n = field_u64(obj, "n");
  rf.nnz = field_u64(obj, "nnz");
  rf.failure = field_str(obj, "failure");
  return rf;
}

void JournalWriter::write_meta(const JournalMeta& meta) {
  append_line(meta_record(meta, kJournalVersion).finish());
}

void JournalWriter::write_reference_failure(const std::string& matrix, std::size_t n,
                                            std::size_t nnz, const std::string& failure) {
  append_line(reference_record(matrix, n, nnz, failure).finish());
}

void JournalWriter::write_run(const std::string& matrix, std::size_t n, std::size_t nnz,
                              const FormatRun& run) {
  append_line(run_record(matrix, n, nnz, run).finish());
}

JournalContents read_journal(const std::string& path) {
  JournalContents jc;
  std::ifstream in(path);
  if (!in) return jc;  // no journal yet: nothing to resume
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, std::string> obj;
    if (!jsonl::parse_line(line, obj)) {
      ++jc.skipped_lines;  // torn final write of a killed sweep
      continue;
    }
    try {
      const std::string type = field_str(obj, "type");
      if (type == "meta") {
        jc.meta = meta_from_record(obj);
        jc.has_meta = true;
      } else if (type == "reference") {
        JournalReferenceFailure rf = reference_from_record(obj);
        jc.reference_failures.insert_or_assign(rf.matrix, std::move(rf));
      } else if (type == "run") {
        JournalRun jr = run_from_record(obj);
        jc.runs.insert_or_assign({jr.matrix, jr.run.format}, std::move(jr));
      } else {
        ++jc.skipped_lines;  // unknown record type (newer writer?)
      }
    } catch (const std::invalid_argument&) {
      ++jc.skipped_lines;
    }
  }
  return jc;
}

}  // namespace mfla

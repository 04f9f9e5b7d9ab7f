#include "serve/protocol.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "core/results_io.hpp"
#include "support/jsonl.hpp"
#include "support/rng.hpp"

namespace mfla::serve {

namespace {

using jsonl::JsonLine;

/// Hex of one 64-bit word, zero-padded to 16 digits.
std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

const char* which_name(Which w) {
  switch (w) {
    case Which::largest_magnitude: return "largest_magnitude";
    case Which::smallest_magnitude: return "smallest_magnitude";
    case Which::largest_real: return "largest_real";
    case Which::smallest_real: return "smallest_real";
  }
  return "unknown";
}

Which which_from_name(const std::string& name) {
  for (const Which w : {Which::largest_magnitude, Which::smallest_magnitude,
                        Which::largest_real, Which::smallest_real}) {
    if (name == which_name(w)) return w;
  }
  throw std::invalid_argument(
      "unknown which '" + name +
      "' (expected largest_magnitude|smallest_magnitude|largest_real|smallest_real)");
}

ExperimentConfig experiment_config(const SweepRequest& r) {
  ExperimentConfig cfg;
  cfg.nev = r.nev;
  cfg.buffer = r.buffer;
  cfg.which = which_from_name(r.which);
  cfg.max_restarts = r.restarts;
  cfg.seed = r.seed;
  cfg.reference_tier = reference_tier_from_name(r.ref_tier);
  return cfg;
}

bool parse_request(const std::string& line, Request& out, std::string& error) {
  std::map<std::string, std::string> obj;
  if (!jsonl::parse_line(line, obj)) {
    error = "malformed JSON request line";
    return false;
  }
  const auto type = obj.find("type");
  if (type == obj.end()) {
    error = "request has no \"type\" field";
    return false;
  }
  if (type->second == "stats") {
    out.kind = Request::Kind::stats;
    return true;
  }
  if (type->second != "sweep") {
    error = "unknown request type \"" + type->second + "\"";
    return false;
  }
  out.kind = Request::Kind::sweep;
  SweepRequest r;  // defaults for absent fields
  // Size fields carry the batch CLI's bounds: the server builds the dataset
  // on the connection thread before admission, so an unbounded count or
  // nev would let one request allocate without limit.
  const auto bounded = [&obj](const char* key, std::uint64_t fallback, std::uint64_t max) {
    const std::uint64_t v = jsonl::field_u64_or(obj, key, fallback);
    if (v > max)
      throw std::invalid_argument(std::string(key) + " " + std::to_string(v) + " exceeds " +
                                  std::to_string(max));
    return v;
  };
  try {
    r.tenant = jsonl::field_str_or(obj, "tenant", r.tenant);
    r.corpus = jsonl::field_str_or(obj, "corpus", r.corpus);
    r.count = static_cast<std::size_t>(bounded("count", r.count, kMaxCorpusCount));
    r.formats = jsonl::field_str_or(obj, "formats", r.formats);
    r.nev = static_cast<std::size_t>(bounded("nev", r.nev, kMaxEigenpairs));
    r.buffer = static_cast<std::size_t>(bounded("buffer", r.buffer, kMaxEigenpairs));
    r.restarts = static_cast<int>(
        bounded("restarts", static_cast<std::uint64_t>(r.restarts), kMaxRestarts));
    r.which = jsonl::field_str_or(obj, "which", r.which);
    r.seed = jsonl::field_u64_or(obj, "seed", r.seed);
    r.ref_tier = jsonl::field_str_or(obj, "ref_tier", r.ref_tier);
    r.resume = jsonl::field_u64_or(obj, "resume", r.resume ? 1 : 0) != 0;
  } catch (const std::invalid_argument& e) {
    error = std::string("bad request field: ") + e.what();
    return false;
  }
  if (r.tenant.empty()) {
    error = "tenant must be non-empty";
    return false;
  }
  out.sweep = std::move(r);
  return true;
}

std::string serialize_request(const SweepRequest& r) {
  JsonLine j;
  j.str("type", "sweep")
      .str("tenant", r.tenant)
      .str("corpus", r.corpus)
      .uint("count", r.count)
      .str("formats", r.formats)
      .uint("nev", r.nev)
      .uint("buffer", r.buffer)
      .uint("restarts", static_cast<std::uint64_t>(r.restarts))
      .str("which", r.which)
      .uint("seed", r.seed)
      .str("ref_tier", r.ref_tier)
      .uint("resume", r.resume ? 1 : 0);
  return j.finish();
}

std::string serialize_stats_request() {
  JsonLine j;
  j.str("type", "stats");
  return j.finish();
}

std::string sweep_id(const SweepRequest& r) {
  // Canonical encoding of every result-affecting field plus the tenant.
  // `resume` deliberately does NOT participate: a retry with resume=false
  // must map to the same namespace it is restarting.
  std::string canon = r.tenant;
  canon += '\n';
  canon += r.corpus;
  canon += '\n';
  canon += std::to_string(r.count);
  canon += '\n';
  canon += r.formats;
  canon += '\n';
  canon += std::to_string(r.nev);
  canon += '\n';
  canon += std::to_string(r.buffer);
  canon += '\n';
  canon += std::to_string(r.restarts);
  canon += '\n';
  canon += r.which;
  canon += '\n';
  canon += std::to_string(r.seed);
  canon += '\n';
  canon += r.ref_tier;
  // Two independent 64-bit FNV streams -> a 128-bit id; collisions across
  // a server state dir are then not a practical concern.
  const std::uint64_t lo = fnv1a(canon);
  const std::uint64_t hi = fnv1a(canon + "\n#salt");
  return hex64(hi) + hex64(lo);
}

// ---------------------------------------------------------------------------
// Response lines
// ---------------------------------------------------------------------------

std::string accepted_line(const std::string& id) {
  JsonLine j;
  j.str("type", "accepted").str("sweep", id).integer("version", kProtocolVersion);
  return j.finish();
}

std::string rejected_line(const std::string& reason, const std::string& detail) {
  JsonLine j;
  j.str("type", "rejected").str("reason", reason).str("detail", detail);
  return j.finish();
}

std::string meta_line(const api::SweepMeta& m) {
  return meta_record(make_journal_meta(m.config, m.formats, m.matrix_count), kProtocolVersion)
      .uint("total_runs", m.total_runs)
      .finish();
}

std::string matrix_line(const TestMatrix& tm, std::size_t index) {
  JsonLine j;
  j.str("type", "matrix")
      .uint("index", index)
      .str("matrix", tm.name)
      .str("class", tm.klass)
      .str("category", tm.category)
      .uint("n", tm.n())
      .uint("nnz", tm.nnz());
  return j.finish();
}

std::string run_line(const std::string& matrix, std::size_t n, std::size_t nnz,
                     const FormatRun& run, bool replayed) {
  JsonLine j = run_record(matrix, n, nnz, run);
  if (replayed) j.uint("replayed", 1);
  return j.finish();
}

std::string reference_line(const std::string& matrix, std::size_t n, std::size_t nnz,
                           const std::string& failure, bool replayed) {
  JsonLine j = reference_record(matrix, n, nnz, failure);
  if (replayed) j.uint("replayed", 1);
  return j.finish();
}

std::string fault_line(const api::FaultEvent& e) {
  JsonLine j;
  j.str("type", "fault")
      .str("matrix", e.matrix)
      .str("stage", e.stage)
      .str("format", e.format)
      .str("what", e.what);
  return j.finish();
}

std::string done_line(const std::string& status, std::size_t executed, std::size_t replayed,
                      std::size_t canceled, double elapsed, const std::string& error) {
  JsonLine j;
  j.str("type", "done")
      .str("status", status)
      .uint("executed", executed)
      .uint("replayed", replayed)
      .uint("canceled", canceled)
      .num("elapsed", elapsed);
  if (!error.empty()) j.str("error", error);
  return j.finish();
}

// ---------------------------------------------------------------------------
// Client-side decoding
// ---------------------------------------------------------------------------

bool parse_event(const std::string& line, Event& out) {
  out.fields.clear();
  if (!jsonl::parse_line(line, out.fields)) return false;
  const auto type = out.fields.find("type");
  if (type == out.fields.end()) return false;
  out.type = type->second;
  return true;
}

}  // namespace mfla::serve

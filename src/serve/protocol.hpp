// Wire protocol of the sweep-serving daemon (docs/SERVING.md).
//
// Newline-delimited JSON in both directions, in the same tiny flat-object
// dialect as the checkpoint journal (support/jsonl.hpp). A connection
// carries exactly one request line from the client, then a response
// stream from the server:
//
//   client:  {"type":"sweep","tenant":"ci","corpus":"general","count":4,...}
//   server:  {"type":"accepted","sweep":"<32-hex id>"}
//            {"type":"meta",...}                         (sweep identity)
//            {"type":"matrix","index":0,...}             (dataset order)
//            ...
//            {"type":"run",...} | {"type":"reference",...} | {"type":"fault",...}
//            ...
//            {"type":"done","status":"ok",...}
//
// or a single {"type":"rejected","reason":...} line. The meta, run and
// reference lines are the checkpoint journal's records (the record codec in
// core/results_io.hpp) plus the protocol's extras: total_runs on meta,
// replayed on re-streamed results; clients decode them with the same
// *_from_record functions. Every numeric field round-trips doubles exactly
// (%.17g), so a client can reconstruct MatrixResult structs — and
// therefore a CSV byte-identical to mfla_experiment's — from the stream
// alone.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/sinks.hpp"
#include "api/sweep.hpp"
#include "core/experiment.hpp"
#include "datasets/corpus.hpp"
#include "datasets/test_matrix.hpp"

namespace mfla::serve {

/// Protocol/schema version, echoed in meta lines. Bump on incompatible
/// changes; clients reject a version they don't know.
inline constexpr int kProtocolVersion = 1;

/// Upper bound on one request line; longer requests are rejected as
/// oversized before parsing (a client bug or garbage peer must not make
/// the daemon buffer without bound).
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;

/// Upper bound on one response line read by the client (event lines are
/// small, but matrix names are caller-controlled).
inline constexpr std::size_t kMaxEventBytes = 1024 * 1024;

/// The request spelling of a Which ("largest_magnitude", "smallest_magnitude",
/// "largest_real", "smallest_real"), and back; which_from_name throws
/// std::invalid_argument naming the valid spellings.
[[nodiscard]] const char* which_name(Which w);
[[nodiscard]] Which which_from_name(const std::string& name);

/// A serialized api::Sweep spec over the built-in corpora. Every default is
/// the library's: ExperimentConfig{}, api::evaluation_formats() and
/// kDefaultCorpusCount, which mfla_experiment reads too, so the same spec
/// submitted to the daemon and run as a batch yields byte-identical CSVs.
struct SweepRequest {
  std::string tenant = "default";  ///< fair-share admission bucket
  /// "general" or a graph class: biological|infrastructure|social|miscellaneous.
  std::string corpus = "general";
  std::size_t count = kDefaultCorpusCount;  ///< matrices per corpus class
  std::string formats = format_keys(api::evaluation_formats());
  std::size_t nev = ExperimentConfig{}.nev;
  std::size_t buffer = ExperimentConfig{}.buffer;
  int restarts = ExperimentConfig{}.max_restarts;
  std::string which = which_name(ExperimentConfig{}.which);
  std::uint64_t seed = ExperimentConfig{}.seed;
  std::string ref_tier = reference_tier_name(ExperimentConfig{}.reference_tier);
  /// Resume this sweep's server-side journal when one exists (a retried
  /// request recomputes only what its predecessor didn't finish).
  bool resume = true;
};

/// The numerical configuration a request asks for: ExperimentConfig{} with
/// the request's nev, buffer, restarts, which, seed and reference tier.
/// Throws std::invalid_argument on an unknown which or tier.
[[nodiscard]] ExperimentConfig experiment_config(const SweepRequest& r);

struct Request {
  enum class Kind { sweep, stats };
  Kind kind = Kind::sweep;
  SweepRequest sweep;
};

/// Parse one request line. Returns false with a message on malformed
/// input (bad JSON, unknown type, bad numbers); unknown KEYS are ignored
/// for forward compatibility.
[[nodiscard]] bool parse_request(const std::string& line, Request& out, std::string& error);

[[nodiscard]] std::string serialize_request(const SweepRequest& r);
[[nodiscard]] std::string serialize_stats_request();

/// Identity of a sweep: hash of every request field that changes the
/// result (plus the tenant, so tenants never share journal namespaces).
/// The daemon keys per-request checkpoint/journal namespaces by this.
[[nodiscard]] std::string sweep_id(const SweepRequest& r);

// ---------------------------------------------------------------------------
// Response lines (server -> client)
// ---------------------------------------------------------------------------

[[nodiscard]] std::string accepted_line(const std::string& id);
/// reason is machine-readable ("overloaded", "tenant_quota",
/// "shutting_down", "bad_request", "duplicate"); detail is for humans.
[[nodiscard]] std::string rejected_line(const std::string& reason, const std::string& detail);
[[nodiscard]] std::string meta_line(const api::SweepMeta& m);
[[nodiscard]] std::string matrix_line(const TestMatrix& tm, std::size_t index);
[[nodiscard]] std::string run_line(const std::string& matrix, std::size_t n, std::size_t nnz,
                                   const FormatRun& run, bool replayed);
[[nodiscard]] std::string reference_line(const std::string& matrix, std::size_t n,
                                         std::size_t nnz, const std::string& failure,
                                         bool replayed);
[[nodiscard]] std::string fault_line(const api::FaultEvent& e);
[[nodiscard]] std::string done_line(const std::string& status, std::size_t executed,
                                    std::size_t replayed, std::size_t canceled, double elapsed,
                                    const std::string& error);

// ---------------------------------------------------------------------------
// Client-side event decoding
// ---------------------------------------------------------------------------

/// One decoded response line: its type plus the raw field map.
struct Event {
  std::string type;
  std::map<std::string, std::string> fields;
};

/// Parse one response line; false on malformed JSON or a missing type.
[[nodiscard]] bool parse_event(const std::string& line, Event& out);

}  // namespace mfla::serve

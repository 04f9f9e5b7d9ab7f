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
#include "core/experiment.hpp"
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

/// A serialized api::Sweep spec over the built-in corpora. Field defaults
/// match mfla_experiment's CLI defaults, so the same spec submitted to the
/// daemon and run as a batch yields byte-identical CSVs.
struct SweepRequest {
  std::string tenant = "default";  ///< fair-share admission bucket
  /// "general" or a graph class: biological|infrastructure|social|miscellaneous.
  std::string corpus = "general";
  std::size_t count = 24;  ///< matrices per corpus class
  std::string formats = "f16,bf16,p16,t16,f32,p32,t32,f64,p64,t64";
  std::size_t nev = 10;
  std::size_t buffer = 2;
  int restarts = 80;
  std::string which = "largest_magnitude";
  std::uint64_t seed = 0xa11ce;  ///< ExperimentConfig::seed default
  std::string ref_tier = "f128_only";
  /// Resume this sweep's server-side journal when one exists (a retried
  /// request recomputes only what its predecessor didn't finish).
  bool resume = true;
};

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

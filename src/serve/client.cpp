#include "serve/client.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "arith/format_registry.hpp"
#include "core/errors.hpp"
#include "core/results_io.hpp"
#include "serve/net.hpp"
#include "support/jsonl.hpp"

namespace mfla::serve {

namespace {

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

ClientResult run_sweep(const ClientOptions& opts, const SweepRequest& req) {
  ClientResult out;
  Fd fd = connect_unix(opts.socket_path);  // IoError when the daemon is absent
  set_io_timeout(fd.get(), opts.io_timeout_ms);
  std::string err;
  if (!send_line(fd.get(), serialize_request(req), err)) {
    out.status = ClientResult::Status::io_error;
    out.error = err;
    return out;
  }

  LineReader reader(fd.get(), kMaxEventBytes);
  std::vector<std::string> format_names;            // meta's run order
  std::map<std::string, std::size_t> format_index;  // name -> slot
  std::map<std::string, std::size_t> matrix_index;  // name -> results slot
  std::vector<std::vector<bool>> filled;            // per matrix, per slot
  std::string done_status;

  const auto protocol_error = [&](const std::string& what) {
    out.status = ClientResult::Status::protocol_error;
    out.error = what;
    return out;
  };

  for (;;) {
    std::string line;
    const LineReader::Status st = reader.read_line(line, err);
    if (st == LineReader::Status::eof) {
      out.status = ClientResult::Status::io_error;
      out.error = "server closed the connection before the done line";
      return out;
    }
    if (st != LineReader::Status::ok) {
      out.status = ClientResult::Status::io_error;
      out.error = err.empty() ? "read failed" : err;
      return out;
    }
    ++out.events;

    Event ev;
    if (!parse_event(line, ev)) return protocol_error("unparseable response line: " + line);
    try {
      if (ev.type == "rejected") {
        out.status = ClientResult::Status::rejected;
        out.reject_reason = jsonl::field_str_or(ev.fields, "reason", "unknown");
        out.error = jsonl::field_str_or(ev.fields, "detail", "");
        return out;
      }
      if (ev.type == "accepted") {
        out.sweep_id = jsonl::field_str_or(ev.fields, "sweep", "");
        const auto version = jsonl::field_u64_or(ev.fields, "version", 0);
        if (version != static_cast<std::uint64_t>(kProtocolVersion))
          return protocol_error("server speaks protocol version " + std::to_string(version) +
                                ", this client speaks " + std::to_string(kProtocolVersion));
      } else if (ev.type == "meta") {
        format_names = split_names(meta_from_record(ev.fields).formats);
        for (std::size_t i = 0; i < format_names.size(); ++i)
          format_index[format_names[i]] = i;
      } else if (ev.type == "matrix") {
        MatrixResult mr;
        mr.name = jsonl::field_str(ev.fields, "matrix");
        mr.klass = jsonl::field_str(ev.fields, "class");
        mr.category = jsonl::field_str(ev.fields, "category");
        mr.n = static_cast<std::size_t>(jsonl::field_u64(ev.fields, "n"));
        mr.nnz = static_cast<std::size_t>(jsonl::field_u64(ev.fields, "nnz"));
        mr.reference_ok = true;
        mr.runs.resize(format_names.size());
        if (matrix_index.count(mr.name) != 0)
          return protocol_error("matrix '" + mr.name + "' announced twice");
        matrix_index[mr.name] = out.results.size();
        out.results.push_back(std::move(mr));
        filled.emplace_back(format_names.size(), false);
      } else if (ev.type == "run") {
        JournalRun rec = run_from_record(ev.fields);
        const auto mi = matrix_index.find(rec.matrix);
        if (mi == matrix_index.end())
          return protocol_error("run event for unannounced matrix '" + rec.matrix + "'");
        const auto fi = format_index.find(format_info(rec.run.format).name);
        if (fi == format_index.end())
          return protocol_error("run event for format outside the meta list");
        out.results[mi->second].runs[fi->second] = std::move(rec.run);
        filled[mi->second][fi->second] = true;
      } else if (ev.type == "reference") {
        JournalReferenceFailure rec = reference_from_record(ev.fields);
        const auto mi = matrix_index.find(rec.matrix);
        if (mi == matrix_index.end())
          return protocol_error("reference event for unannounced matrix '" + rec.matrix + "'");
        MatrixResult& mr = out.results[mi->second];
        mr.reference_ok = false;
        mr.reference_failure = std::move(rec.failure);
        mr.runs.clear();
      } else if (ev.type == "done") {
        done_status = jsonl::field_str(ev.fields, "status");
        out.executed = static_cast<std::size_t>(jsonl::field_u64_or(ev.fields, "executed", 0));
        out.replayed = static_cast<std::size_t>(jsonl::field_u64_or(ev.fields, "replayed", 0));
        out.elapsed_seconds = jsonl::field_num_or(ev.fields, "elapsed", 0.0);
        out.error = jsonl::field_str_or(ev.fields, "error", "");
        break;
      }
      // "fault" and any future informational types are consumed silently.
    } catch (const std::exception& e) {
      return protocol_error(std::string("bad field in '") + ev.type + "' event: " + e.what());
    }

    if (opts.abort_after_events != 0 && out.events >= opts.abort_after_events) {
      out.status = ClientResult::Status::aborted;
      out.error = "aborted after " + std::to_string(out.events) + " events (test hook)";
      return out;
    }
  }

  if (done_status == "canceled") {
    out.status = ClientResult::Status::canceled;
    return out;
  }
  if (done_status != "ok") {
    out.status = ClientResult::Status::error;
    if (out.error.empty()) out.error = "sweep failed server-side";
    return out;
  }
  // A complete stream accounts for every (matrix, format) slot; anything
  // missing means the stream lied about being done.
  for (std::size_t m = 0; m < out.results.size(); ++m) {
    if (!out.results[m].reference_ok) continue;
    for (std::size_t f = 0; f < filled[m].size(); ++f) {
      if (!filled[m][f])
        return protocol_error("done, but run (" + out.results[m].name + ", " + format_names[f] +
                              ") was never streamed");
    }
  }
  out.status = ClientResult::Status::ok;
  return out;
}

std::string fetch_stats(const ClientOptions& opts) {
  Fd fd = connect_unix(opts.socket_path);
  set_io_timeout(fd.get(), opts.io_timeout_ms);
  std::string err;
  if (!send_line(fd.get(), serialize_stats_request(), err))
    throw IoError("serve: stats request failed: " + err);
  LineReader reader(fd.get(), kMaxEventBytes);
  std::string line;
  const LineReader::Status st = reader.read_line(line, err);
  if (st != LineReader::Status::ok)
    throw IoError("serve: stats response failed: " + (err.empty() ? "connection closed" : err));
  return line;
}

}  // namespace mfla::serve

#include "serve/server.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/sweep.hpp"
#include "core/errors.hpp"
#include "datasets/corpus.hpp"
#include "support/failpoint.hpp"
#include "support/jsonl.hpp"

namespace mfla::serve {

namespace {

/// ResultSink that serializes every engine event onto the connection
/// socket. The engine already serializes event delivery under one lock, so
/// this sink needs no locking of its own. A failed send marks the stream
/// broken AND flips the sweep's cancel flag — a dead client stops
/// consuming compute at the next task boundary, while everything already
/// in flight still reaches the journal.
class StreamSink final : public api::ResultSink {
 public:
  StreamSink(int fd, std::atomic<bool>& cancel, std::vector<std::string> matrix_lines)
      : fd_(fd), cancel_(cancel), matrix_lines_(std::move(matrix_lines)) {}

  void on_meta(const api::SweepMeta& m) override {
    send(meta_line(m));
    for (const std::string& line : matrix_lines_) send(line);
  }

  void on_run(const api::RunEvent& e) override {
    streamed_runs_.insert({e.matrix, e.run.format});
    send(run_line(e.matrix, e.n, e.nnz, e.run, /*replayed=*/false));
  }

  void on_reference(const api::ReferenceEvent& e) override {
    streamed_refs_.insert(e.matrix);
    send(reference_line(e.matrix, e.n, e.nnz, e.failure, /*replayed=*/false));
  }

  void on_fault(const api::FaultEvent& e) override { send(fault_line(e)); }

  [[nodiscard]] bool broken() const noexcept { return broken_; }
  [[nodiscard]] bool streamed_run(const std::string& matrix, FormatId format) const {
    return streamed_runs_.count({matrix, format}) != 0;
  }
  [[nodiscard]] bool streamed_reference(const std::string& matrix) const {
    return streamed_refs_.count(matrix) != 0;
  }

 private:
  void send(const std::string& line) {
    if (broken_) return;
    std::string err;
    if (!send_line(fd_, line, err)) {
      broken_ = true;
      cancel_.store(true, std::memory_order_release);
    }
  }

  int fd_;
  std::atomic<bool>& cancel_;
  std::vector<std::string> matrix_lines_;
  bool broken_ = false;
  std::set<std::pair<std::string, FormatId>> streamed_runs_;
  std::set<std::string> streamed_refs_;
};

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.threads),
      cache_(opts_.state_dir + "/refcache"),
      scheduler_(opts_.limits) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(opts_.state_dir) / "sweeps", ec);
  if (ec)
    throw IoError("serve: cannot create state directory '" + opts_.state_dir +
                  "': " + ec.message());
  listener_ = listen_unix(opts_.socket_path);
}

Server::~Server() = default;

void Server::serve() {
  while (!drain_.load(std::memory_order_acquire)) {
    std::string err;
    Fd accepted = poll_accept(listener_.get(), opts_.accept_poll_ms, err);
    if (!accepted.valid()) {
      // Timeout (err empty) re-checks the drain flag; per-connection accept
      // failures — injected or real — are logged and survived.
      if (!err.empty()) std::fprintf(stderr, "mfla_served: %s\n", err.c_str());
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    set_io_timeout(accepted.get(), opts_.io_timeout_ms);
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(accepted);
    {
      std::lock_guard<std::mutex> lk(conn_mtx_);
      conns_.insert(conn.get());
    }
    std::thread([this, c = std::move(conn)]() mutable {
      handle_connection(*c);
      // Notify under the mutex: the moment the erase is visible to serve()'s
      // drain wait the Server may be destroyed, so the notify must complete
      // before this thread lets go of the lock.
      std::lock_guard<std::mutex> lk(conn_mtx_);
      conns_.erase(c.get());
      conn_cv_.notify_all();
    }).detach();
  }

  // Drain order matters: close the listener first so new clients fail fast
  // (ECONNREFUSED/ENOENT, not a hang), reject everything still queued for
  // admission, then wait for the in-flight connections to finish — their
  // sweeps either complete or (under cancel) stop at a task boundary with
  // their journals flushed.
  listener_.reset();
  ::unlink(opts_.socket_path.c_str());
  scheduler_.begin_shutdown();
  if (cancel_all_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(conn_mtx_);
    for (Conn* c : conns_) c->cancel.store(true, std::memory_order_release);
  }
  std::unique_lock<std::mutex> lk(conn_mtx_);
  conn_cv_.wait(lk, [this] { return conns_.empty(); });
}

void Server::request_drain() {
  drain_.store(true, std::memory_order_release);
  scheduler_.begin_shutdown();
}

void Server::request_cancel() {
  cancel_all_.store(true, std::memory_order_release);
  request_drain();
  std::lock_guard<std::mutex> lk(conn_mtx_);
  for (Conn* c : conns_) c->cancel.store(true, std::memory_order_release);
}

void Server::handle_connection(Conn& conn) {
  const int fd = conn.fd.get();
  LineReader reader(fd, kMaxRequestBytes);
  std::string line;
  std::string err;
  const LineReader::Status st = reader.read_line(line, err);
  if (st != LineReader::Status::ok) {
    if (st == LineReader::Status::overlong) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      std::string werr;
      (void)send_line(fd, rejected_line("bad_request", "request " + err), werr);
    }
    // eof/error: the peer vanished or timed out before asking anything.
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  Request req;
  std::string perr;
  if (!parse_request(line, req, perr)) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    std::string werr;
    (void)send_line(fd, rejected_line("bad_request", perr), werr);
    return;
  }
  if (req.kind == Request::Kind::stats) {
    std::string werr;
    (void)send_line(fd, stats_line(), werr);
    return;
  }
  run_sweep(conn, req.sweep);
}

void Server::run_sweep(Conn& conn, const SweepRequest& req) {
  const int fd = conn.fd.get();
  std::string werr;
  if (int injected = MFLA_FAILPOINT("serve.dispatch"); injected != 0) {
    (void)send_line(
        fd,
        rejected_line("error", std::string("dispatch failed: ") + std::strerror(injected) +
                                   " (injected)"),
        werr);
    return;
  }

  // Validate and build everything BEFORE admission — a bad request must
  // cost a slot to nobody.
  std::vector<FormatId> formats;
  ExperimentConfig config;
  std::vector<TestMatrix> dataset;
  try {
    if (req.nev == 0) throw std::invalid_argument("nev must be positive");
    if (req.count == 0) throw std::invalid_argument("count must be positive");
    formats = parse_format_keys(req.formats);
    config = experiment_config(req);
    dataset = build_named_corpus(req.corpus, req.count);
  } catch (const std::exception& e) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    (void)send_line(fd, rejected_line("bad_request", e.what()), werr);
    return;
  }

  const std::string id = sweep_id(req);
  {
    std::lock_guard<std::mutex> lk(sweep_mtx_);
    if (!active_sweep_ids_.insert(id).second) {
      (void)send_line(fd, rejected_line("duplicate", "sweep " + id + " is already in flight"),
                      werr);
      return;
    }
  }
  struct IdGuard {
    Server* s;
    const std::string& id;
    ~IdGuard() {
      std::lock_guard<std::mutex> lk(s->sweep_mtx_);
      s->active_sweep_ids_.erase(id);
    }
  } id_guard{this, id};

  Scheduler::Slot slot;
  const Admission adm = scheduler_.acquire(req.tenant, slot);
  if (adm != Admission::admitted) {
    const SchedulerLimits& lim = scheduler_.limits();
    std::string detail;
    switch (adm) {
      case Admission::overloaded:
        detail = "server at capacity (" + std::to_string(lim.max_active) + " active + " +
                 std::to_string(lim.max_queued) + " queued); retry later";
        break;
      case Admission::tenant_quota:
        detail = "tenant '" + req.tenant + "' already holds its fair share (" +
                 std::to_string(lim.max_per_tenant) + " sweeps)";
        break;
      default: detail = "server is shutting down"; break;
    }
    (void)send_line(fd, rejected_line(admission_name(adm), detail), werr);
    return;
  }

  const std::filesystem::path sweep_dir =
      std::filesystem::path(opts_.state_dir) / "sweeps" / id;
  std::error_code ec;
  std::filesystem::create_directories(sweep_dir, ec);
  if (ec) {
    (void)send_line(
        fd, rejected_line("error", "cannot create sweep state dir: " + ec.message()), werr);
    return;
  }
  const std::string journal = (sweep_dir / "journal.jsonl").string();
  const bool resume = req.resume && std::filesystem::exists(journal, ec);

  if (!send_line(fd, accepted_line(id), werr)) return;

  // The dataset is moved into the Sweep below; matrix announcement lines
  // are rendered now so the sink can emit them right after the meta line.
  std::vector<std::string> matrix_lines;
  matrix_lines.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i)
    matrix_lines.push_back(matrix_line(dataset[i], i));
  auto sink = std::make_shared<StreamSink>(fd, conn.cancel, std::move(matrix_lines));

  std::string status = "ok";
  std::string error;
  api::SweepResult result;
  try {
    result = api::Sweep::over(std::move(dataset))
                 .formats(formats)
                 .config(config)
                 .pool(&pool_)
                 .cancel(&conn.cancel)
                 .cache(&cache_)
                 .checkpoint(journal)
                 .resume(resume)
                 .sink(sink)
                 .run();
  } catch (const std::exception& e) {
    status = "error";
    error = e.what();
  }

  const bool canceled =
      conn.cancel.load(std::memory_order_acquire) || result.stats.canceled_runs != 0;
  if (status == "ok" && canceled) status = "canceled";

  // Journal-replayed results were never announced by the engine; re-stream
  // them (marked) so the client's reconstruction covers the whole sweep. A
  // canceled sweep skips this — its unexecuted result slots are empty
  // placeholders, not results.
  std::size_t replayed = 0;
  if (status == "ok" && !sink->broken()) {
    bool stream_ok = true;
    for (const MatrixResult& mr : result.results) {
      if (!stream_ok) break;
      if (!mr.reference_ok) {
        if (!sink->streamed_reference(mr.name)) {
          ++replayed;
          stream_ok = send_line(
              fd, reference_line(mr.name, mr.n, mr.nnz, mr.reference_failure, true), werr);
        }
        continue;
      }
      for (const FormatRun& run : mr.runs) {
        if (sink->streamed_run(mr.name, run.format)) continue;
        ++replayed;
        if (!(stream_ok = send_line(fd, run_line(mr.name, mr.n, mr.nnz, run, true), werr)))
          break;
      }
    }
  }

  if (status == "ok")
    sweeps_ok_.fetch_add(1, std::memory_order_relaxed);
  else if (status == "canceled")
    sweeps_canceled_.fetch_add(1, std::memory_order_relaxed);
  else
    sweeps_failed_.fetch_add(1, std::memory_order_relaxed);

  (void)send_line(fd,
                  done_line(status, result.executed_runs, replayed, result.stats.canceled_runs,
                            result.elapsed_seconds, error),
                  werr);

  // A completed sweep's journal has served its purpose; removing the
  // namespace keeps the state dir from accreting one directory per request
  // ever made. Canceled/failed sweeps keep theirs — that journal is what
  // makes the retry cheap.
  if (status == "ok") std::filesystem::remove_all(sweep_dir, ec);
}

std::string Server::stats_line() {
  const ServerStats s = stats_snapshot();
  jsonl::JsonLine j;
  j.str("type", "stats")
      .uint("connections", s.connections)
      .uint("requests", s.requests)
      .uint("malformed", s.malformed)
      .uint("sweeps_ok", s.sweeps_ok)
      .uint("sweeps_failed", s.sweeps_failed)
      .uint("sweeps_canceled", s.sweeps_canceled)
      .uint("active", s.admission.active)
      .uint("queued", s.admission.queued)
      .uint("admitted", s.admission.admitted)
      .uint("rejected_overloaded", s.admission.rejected_overloaded)
      .uint("rejected_tenant", s.admission.rejected_tenant)
      .uint("rejected_shutdown", s.admission.rejected_shutdown)
      .uint("cache_lookups", s.cache.lookups)
      .uint("cache_hits", s.cache.hits)
      .uint("cache_misses", s.cache.misses)
      .uint("cache_stores", s.cache.stores)
      .uint("cache_quarantined", s.cache.quarantined)
      .uint("cache_degraded", s.cache.degraded ? 1 : 0)
      .uint("draining", s.draining ? 1 : 0);
  return j.finish();
}

ServerStats Server::stats_snapshot() {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.sweeps_ok = sweeps_ok_.load(std::memory_order_relaxed);
  s.sweeps_failed = sweeps_failed_.load(std::memory_order_relaxed);
  s.sweeps_canceled = sweeps_canceled_.load(std::memory_order_relaxed);
  s.admission = scheduler_.stats();
  s.cache = cache_.stats();
  s.draining = drain_.load(std::memory_order_acquire);
  return s;
}

}  // namespace mfla::serve

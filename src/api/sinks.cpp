#include "api/sinks.hpp"

#include <unistd.h>

#include <utility>

#include "api/sweep.hpp"

namespace mfla::api {

// ---------------------------------------------------------------------------
// MultiSink
// ---------------------------------------------------------------------------

MultiSink::MultiSink(std::vector<std::shared_ptr<ResultSink>> sinks)
    : sinks_(std::move(sinks)) {}

MultiSink& MultiSink::add(std::shared_ptr<ResultSink> sink) {
  sinks_.push_back(std::move(sink));
  return *this;
}

void MultiSink::on_meta(const SweepMeta& m) {
  for (const auto& s : sinks_) s->on_meta(m);
}
void MultiSink::on_run(const RunEvent& e) {
  for (const auto& s : sinks_) s->on_run(e);
}
void MultiSink::on_reference(const ReferenceEvent& e) {
  for (const auto& s : sinks_) s->on_reference(e);
}
void MultiSink::on_fault(const FaultEvent& e) {
  for (const auto& s : sinks_) s->on_fault(e);
}
void MultiSink::on_done(const SweepResult& r) {
  for (const auto& s : sinks_) s->on_done(r);
}

// ---------------------------------------------------------------------------
// CsvSink
// ---------------------------------------------------------------------------

CsvSink::CsvSink(std::string path) : path_(std::move(path)) {}

void CsvSink::on_done(const SweepResult& r) {
  if (r.stats.canceled_runs != 0) {
    skipped_ = true;
    return;
  }
  write_results_csv(path_, r.results);
}

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

void MemorySink::on_meta(const SweepMeta& m) {
  std::lock_guard<std::mutex> lk(mtx_);
  order_.push_back(EventKind::meta);
  has_meta_ = true;
  meta_ = m;
}

void MemorySink::on_run(const RunEvent& e) {
  std::lock_guard<std::mutex> lk(mtx_);
  order_.push_back(EventKind::run);
  runs_.push_back(e);
}

void MemorySink::on_reference(const ReferenceEvent& e) {
  std::lock_guard<std::mutex> lk(mtx_);
  order_.push_back(EventKind::reference);
  references_.push_back(e);
}

void MemorySink::on_fault(const FaultEvent& e) {
  std::lock_guard<std::mutex> lk(mtx_);
  order_.push_back(EventKind::fault);
  faults_.push_back(e);
}

void MemorySink::on_done(const SweepResult& r) {
  std::lock_guard<std::mutex> lk(mtx_);
  order_.push_back(EventKind::done);
  done_ = true;
  results_ = r.results;
}

std::vector<MemorySink::EventKind> MemorySink::order() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return order_;
}
bool MemorySink::has_meta() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return has_meta_;
}
SweepMeta MemorySink::meta() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return meta_;
}
std::vector<RunEvent> MemorySink::runs() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return runs_;
}
std::vector<ReferenceEvent> MemorySink::references() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return references_;
}
std::vector<FaultEvent> MemorySink::faults() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return faults_;
}
bool MemorySink::done() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return done_;
}
std::vector<MatrixResult> MemorySink::results() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return results_;
}

// ---------------------------------------------------------------------------
// ProgressSink
// ---------------------------------------------------------------------------

namespace {

std::string format_eta(double seconds) {
  if (seconds < 0) seconds = 0;
  const auto total = static_cast<long long>(seconds + 0.5);
  char buf[32];
  if (total >= 3600) {
    std::snprintf(buf, sizeof buf, "%lldh%02lldm", total / 3600, (total % 3600) / 60);
  } else if (total >= 60) {
    std::snprintf(buf, sizeof buf, "%lldm%02llds", total / 60, total % 60);
  } else {
    std::snprintf(buf, sizeof buf, "%llds", total);
  }
  return buf;
}

}  // namespace

ProgressSink::ProgressSink(std::FILE* stream, Mode mode) : stream_(stream) {
  switch (mode) {
    case Mode::tty: tty_ = true; break;
    case Mode::plain: tty_ = false; break;
    case Mode::auto_detect: tty_ = ::isatty(::fileno(stream_)) == 1; break;
  }
}

void ProgressSink::on_run(const RunEvent& e) { render(e.done, e.total, e.elapsed_seconds); }

void ProgressSink::on_reference(const ReferenceEvent& e) {
  render(e.done, e.total, e.elapsed_seconds);
}

void ProgressSink::render(std::size_t done, std::size_t total, double elapsed_seconds) {
  if (total == 0) return;
  const double frac = static_cast<double>(done) / static_cast<double>(total);
  if (!tty_) {
    // Non-interactive stream: one plain line per 10% milestone (plus the
    // final one), never a carriage return.
    const std::size_t decile = (10 * done) / total;
    if (decile <= last_decile_ && done != total) return;
    last_decile_ = decile;
  }
  std::string line = "runs " + std::to_string(done) + "/" + std::to_string(total);
  char pct[16];
  std::snprintf(pct, sizeof pct, " (%3.0f%%)", 100.0 * frac);
  line += pct;
  line += "  elapsed " + format_eta(elapsed_seconds);
  if (done > 0 && done < total) {
    const double eta =
        elapsed_seconds * static_cast<double>(total - done) / static_cast<double>(done);
    line += "  eta " + format_eta(eta);
  }
  if (tty_) {
    std::fprintf(stream_, "\r%-60s", line.c_str());
    if (done == total) std::fprintf(stream_, "\n");
  } else {
    std::fprintf(stream_, "%s\n", line.c_str());
  }
  std::fflush(stream_);
}

}  // namespace mfla::api

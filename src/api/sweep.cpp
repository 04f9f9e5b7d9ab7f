#include "api/sweep.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/report.hpp"

namespace mfla::api {

std::vector<FormatId> evaluation_formats() {
  std::vector<FormatId> out;
  for (const auto& f : all_formats()) {
    if (!f.reference_only) out.push_back(f.id);
  }
  return out;
}

const MatrixResult* SweepResult::find(const std::string& matrix) const {
  for (const auto& mr : results) {
    if (mr.name == matrix) return &mr;
  }
  return nullptr;
}

const FormatRun* SweepResult::find(const std::string& matrix, FormatId format) const {
  const MatrixResult* mr = find(matrix);
  if (mr == nullptr) return nullptr;
  for (const auto& run : mr->runs) {
    if (run.format == format) return &run;
  }
  return nullptr;
}

Sweep Sweep::over(std::vector<TestMatrix> corpus) {
  Sweep s;
  s.corpus_ = std::move(corpus);
  return s;
}

Sweep& Sweep::formats(std::vector<FormatId> ids) {
  formats_ = std::move(ids);
  return *this;
}

Sweep& Sweep::formats(const std::string& keys) {
  formats_ = parse_format_keys(keys);
  return *this;
}

Sweep& Sweep::nev(std::size_t n) {
  cfg_.nev = n;
  return *this;
}
Sweep& Sweep::buffer(std::size_t b) {
  cfg_.buffer = b;
  return *this;
}
Sweep& Sweep::which(Which w) {
  cfg_.which = w;
  return *this;
}
Sweep& Sweep::restarts(int r) {
  cfg_.max_restarts = r;
  return *this;
}
Sweep& Sweep::reference_restarts(int r) {
  cfg_.reference_max_restarts = r;
  return *this;
}
Sweep& Sweep::seed(std::uint64_t s) {
  cfg_.seed = s;
  return *this;
}
Sweep& Sweep::reference_tier(ReferenceTier tier) {
  cfg_.reference_tier = tier;
  return *this;
}
Sweep& Sweep::reference_tier(const std::string& name) {
  cfg_.reference_tier = reference_tier_from_name(name);
  return *this;
}
Sweep& Sweep::config(const ExperimentConfig& cfg) {
  cfg_ = cfg;
  return *this;
}

Sweep& Sweep::threads(std::size_t n) {
  threads_ = n;
  return *this;
}
Sweep& Sweep::pool(ThreadPool* p) {
  pool_ = p;
  return *this;
}
Sweep& Sweep::cancel(const std::atomic<bool>* flag) {
  cancel_ = flag;
  return *this;
}
Sweep& Sweep::checkpoint(std::string path) {
  checkpoint_ = std::move(path);
  return *this;
}
Sweep& Sweep::resume(bool on) {
  resume_ = on;
  return *this;
}
Sweep& Sweep::cache(std::string directory) {
  cache_dir_ = std::move(directory);
  return *this;
}
Sweep& Sweep::cache(ReferenceCache* shared) {
  shared_cache_ = shared;
  return *this;
}

Sweep& Sweep::sink(std::shared_ptr<ResultSink> s) {
  if (s != nullptr) sinks_.push_back(std::move(s));
  return *this;
}

namespace {

/// The checkpoint journal needs its directory; create it (mkdir -p
/// semantics, like the engine would) and fail the build-state validation
/// early when it still does not exist — e.g. a path routed through a file.
void require_checkpoint_directory(const std::string& path) {
  ensure_parent_directory(path);
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return;  // bare filename: current directory
  std::error_code ec;
  if (!std::filesystem::is_directory(parent, ec))
    throw std::invalid_argument("Sweep: checkpoint directory '" + parent.string() +
                                "' does not exist and cannot be created");
}

}  // namespace

SweepResult Sweep::run() {
  if (corpus_.empty())
    throw std::invalid_argument("Sweep: no matrices; pass a non-empty corpus to Sweep::over");
  if (formats_.empty())
    throw std::invalid_argument("Sweep: no formats; call formats(...) before run()");
  for (std::size_t i = 0; i < formats_.size(); ++i) {
    for (std::size_t j = i + 1; j < formats_.size(); ++j) {
      if (formats_[i] == formats_[j])
        throw std::invalid_argument("Sweep: duplicate format '" +
                                    format_info(formats_[i]).name + "' in format list");
    }
  }
  if (cfg_.nev == 0) throw std::invalid_argument("Sweep: nev must be positive");
  require_bounded("Sweep", "nev", cfg_.nev, kMaxEigenpairs);
  require_bounded("Sweep", "buffer", cfg_.buffer, kMaxEigenpairs);
  require_bounded("Sweep", "max_restarts", cfg_.max_restarts, kMaxRestarts);
  require_bounded("Sweep", "reference_max_restarts", cfg_.reference_max_restarts, kMaxRestarts);
  if (resume_ && checkpoint_.empty())
    throw std::invalid_argument("Sweep: resume() requires checkpoint(path)");
  if (!checkpoint_.empty()) require_checkpoint_directory(checkpoint_);

  ScheduleOptions sched;
  sched.threads = threads_;
  sched.pool = pool_;
  sched.cancel = cancel_;
  sched.checkpoint_path = checkpoint_;
  sched.resume = resume_;
  SweepStats stats;
  sched.stats = &stats;

  std::unique_ptr<ReferenceCache> cache;
  if (shared_cache_ != nullptr) {
    sched.ref_cache = shared_cache_;
  } else if (!cache_dir_.empty()) {
    cache = std::make_unique<ReferenceCache>(cache_dir_);
    sched.ref_cache = cache.get();
  }

  // The engine fires on_run/on_reference_failure serialized under one lock,
  // so the per-event sink fan-out below needs no locking of its own.
  std::size_t executed = 0;
  if (!sinks_.empty()) {
    sched.on_run = [this, &executed](const TestMatrix& tm, const FormatRun& run,
                                     const ExperimentProgress& p) {
      ++executed;
      RunEvent e;
      e.matrix = tm.name;
      e.n = tm.n();
      e.nnz = tm.nnz();
      e.run = run;
      e.done = p.done;
      e.total = p.total;
      e.elapsed_seconds = p.elapsed_seconds;
      for (const auto& s : sinks_) s->on_run(e);
    };
    sched.on_reference_failure = [this](const TestMatrix& tm, const std::string& failure,
                                        const ExperimentProgress& p) {
      ReferenceEvent e;
      e.matrix = tm.name;
      e.n = tm.n();
      e.nnz = tm.nnz();
      e.failure = failure;
      e.done = p.done;
      e.total = p.total;
      e.elapsed_seconds = p.elapsed_seconds;
      for (const auto& s : sinks_) s->on_reference(e);
    };
    sched.on_fault = [this](const TestMatrix& tm, const SolveFault& f) {
      FaultEvent e;
      e.matrix = tm.name;
      e.n = tm.n();
      e.nnz = tm.nnz();
      e.stage = f.stage;
      if (std::string(f.stage) == "format") e.format = format_info(f.format).name;
      e.what = f.what;
      for (const auto& s : sinks_) s->on_fault(e);
    };
  } else {
    sched.on_run = [&executed](const TestMatrix&, const FormatRun&, const ExperimentProgress&) {
      ++executed;
    };
  }

  SweepMeta meta;
  meta.config = cfg_;
  meta.formats = formats_;
  meta.matrix_count = corpus_.size();
  meta.total_runs = corpus_.size() * formats_.size();
  meta.threads = threads_;
  meta.checkpoint_path = checkpoint_;
  meta.resume = resume_;
  meta.cache_dir = cache_dir_;
  for (const auto& s : sinks_) s->on_meta(meta);

  const auto t0 = std::chrono::steady_clock::now();
  SweepResult out;
  out.results = run_experiment(corpus_, formats_, cfg_, sched);
  out.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.stats = stats;
  out.executed_runs = executed;
  if (shared_cache_ != nullptr) {
    out.cache_attached = true;
    out.cache = shared_cache_->stats();
  } else if (cache) {
    out.cache_attached = true;
    out.cache = cache->stats();
  }
  for (const auto& s : sinks_) s->on_done(out);
  return out;
}

}  // namespace mfla::api

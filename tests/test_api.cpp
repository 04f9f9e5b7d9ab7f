// mfla::api facade tests: SweepBuilder-vs-legacy byte identity, the
// ResultSink event pipeline (ordering and serialization under threads=N),
// registry-driven format keys, and
// invalid-builder-state errors.
//
// The legacy cross-checks intentionally drive the deprecated free-function
// surface.
#define MFLA_ALLOW_DEPRECATED
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "support/failpoint.hpp"

namespace mfla {
namespace {

std::vector<TestMatrix> api_dataset() {
  std::vector<TestMatrix> ds;
  Rng r1(9101), r2(9102), r3(9103);
  ds.push_back(make_test_matrix("api_er_a", "social", "soc",
                                graph_laplacian_pipeline(erdos_renyi(44, 0.15, r1))));
  ds.push_back(make_test_matrix("api_sbm_b", "social", "soc",
                                graph_laplacian_pipeline(stochastic_block(48, 2, 0.35, 0.06, r2))));
  ds.push_back(make_test_matrix("api_er_c", "biological", "protein",
                                graph_laplacian_pipeline(erdos_renyi(52, 0.12, r3))));
  return ds;
}

std::vector<FormatId> api_formats() {
  return {FormatId::float32, FormatId::takum16, FormatId::float64};
}

ExperimentConfig api_config() {
  ExperimentConfig cfg;
  cfg.nev = 6;
  cfg.buffer = 2;
  cfg.max_restarts = 80;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string csv_of(const std::vector<MatrixResult>& results, const std::string& tag) {
  const std::string path = "test_out/api_" + tag + ".csv";
  write_results_csv(path, results);
  std::string data = slurp(path);
  std::remove(path.c_str());
  return data;
}

// ---------------------------------------------------------------------------
// Format registry keys
// ---------------------------------------------------------------------------

TEST(FormatRegistry, KeyRoundTripsForEveryFormat) {
  for (const auto& f : all_formats()) {
    EXPECT_EQ(format_key(f.id), f.key);
    EXPECT_EQ(format_from_key(f.key), f.id);
    EXPECT_EQ(format_from_name(f.name), f.id);
  }
}

TEST(FormatRegistry, UnknownKeyListsValidOnes) {
  try {
    (void)format_from_key("zzz");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("zzz"), std::string::npos);
    // The message must enumerate the selectable keys (dd and f128 are
    // reference arithmetics, deliberately not advertised).
    for (const auto& f : all_formats()) {
      if (f.reference_only) continue;
      EXPECT_NE(msg.find(f.key), std::string::npos) << "key " << f.key << " not listed";
    }
  }
}

TEST(FormatRegistry, ParseFormatKeys) {
  const auto ids = parse_format_keys("f16,bf16,t16");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], FormatId::float16);
  EXPECT_EQ(ids[1], FormatId::bfloat16);
  EXPECT_EQ(ids[2], FormatId::takum16);
  EXPECT_THROW((void)parse_format_keys("f16,zzz"), std::invalid_argument);
  EXPECT_THROW((void)parse_format_keys("f16,f16"), std::invalid_argument);
  EXPECT_THROW((void)parse_format_keys(""), std::invalid_argument);
  EXPECT_THROW((void)parse_format_keys(",,"), std::invalid_argument);
  // The reference arithmetics are not formats under evaluation.
  EXPECT_THROW((void)parse_format_keys("f16,f128"), std::invalid_argument);
  EXPECT_THROW((void)parse_format_keys("f16,dd"), std::invalid_argument);
}

TEST(FormatRegistry, DispatchFormatRejectsForgedIds) {
  EXPECT_THROW(dispatch_format(static_cast<FormatId>(999),
                               [](auto) { return 0; }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SweepBuilder vs legacy engine: byte-identical results
// ---------------------------------------------------------------------------

TEST(SweepBuilder, ByteIdenticalToLegacyPath) {
  const auto ds = api_dataset();
  const auto formats = api_formats();
  const auto cfg = api_config();

  // Legacy: the raw engine + write_results_csv.
  ScheduleOptions sched;
  sched.threads = 2;
  const std::string legacy_csv = csv_of(run_experiment(ds, formats, cfg, sched), "legacy");
  ASSERT_FALSE(legacy_csv.empty());

  // Facade: same corpus/config/threads through the builder, raw CSV via a
  // CsvSink and via the returned results — all three must be byte-equal.
  const std::string sink_path = "test_out/api_sink.csv";
  const api::SweepResult sweep = api::Sweep::over(ds)
                                     .formats(formats)
                                     .config(cfg)
                                     .threads(2)
                                     .sink(std::make_shared<api::CsvSink>(sink_path))
                                     .run();
  EXPECT_EQ(csv_of(sweep.results, "builder"), legacy_csv);
  EXPECT_EQ(slurp(sink_path), legacy_csv);
  std::remove(sink_path.c_str());

  EXPECT_EQ(sweep.executed_runs, ds.size() * formats.size());
  EXPECT_FALSE(sweep.cache_attached);
  EXPECT_GE(sweep.stats.reference_solves, ds.size());

  // Thread-count invariance holds through the facade as well.
  const api::SweepResult serial =
      api::Sweep::over(ds).formats(formats).config(cfg).threads(1).run();
  EXPECT_EQ(csv_of(serial.results, "serial"), legacy_csv);
}

TEST(SweepBuilder, FluentNumericalSettersMatchConfigStruct) {
  const auto ds = api_dataset();
  const auto cfg = api_config();
  const auto r1 = api::Sweep::over(ds)
                      .formats({FormatId::takum16})
                      .nev(cfg.nev)
                      .buffer(cfg.buffer)
                      .which(cfg.which)
                      .restarts(cfg.max_restarts)
                      .reference_restarts(cfg.reference_max_restarts)
                      .seed(cfg.seed)
                      .threads(1)
                      .run();
  const auto r2 =
      api::Sweep::over(ds).formats({FormatId::takum16}).config(cfg).threads(1).run();
  EXPECT_EQ(csv_of(r1.results, "setters"), csv_of(r2.results, "struct"));
}

// ---------------------------------------------------------------------------
// Sink pipeline
// ---------------------------------------------------------------------------

TEST(SinkPipeline, MultiSinkOrderingAndSerializationUnderThreads) {
  const auto ds = api_dataset();
  const auto formats = api_formats();

  auto a = std::make_shared<api::MemorySink>();
  auto b = std::make_shared<api::MemorySink>();
  auto multi = std::make_shared<api::MultiSink>();
  multi->add(a).add(b);

  const api::SweepResult sweep =
      api::Sweep::over(ds).formats(formats).config(api_config()).threads(4).sink(multi).run();

  for (const auto& sink : {a, b}) {
    ASSERT_TRUE(sink->has_meta());
    ASSERT_TRUE(sink->done());
    const auto order = sink->order();
    ASSERT_EQ(order.size(), 2 + ds.size() * formats.size());
    // meta strictly first, done strictly last, runs in between.
    EXPECT_EQ(order.front(), api::MemorySink::EventKind::meta);
    EXPECT_EQ(order.back(), api::MemorySink::EventKind::done);
    for (std::size_t i = 1; i + 1 < order.size(); ++i)
      EXPECT_EQ(order[i], api::MemorySink::EventKind::run);

    const api::SweepMeta meta = sink->meta();
    EXPECT_EQ(meta.matrix_count, ds.size());
    EXPECT_EQ(meta.total_runs, ds.size() * formats.size());
    EXPECT_EQ(meta.formats, formats);
    EXPECT_EQ(meta.threads, 4u);

    // Events are serialized: the done counter must be a strictly
    // increasing 1..total sequence even with 4 workers racing.
    const auto runs = sink->runs();
    ASSERT_EQ(runs.size(), ds.size() * formats.size());
    std::set<std::pair<std::string, FormatId>> seen;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].done, i + 1);
      EXPECT_EQ(runs[i].total, ds.size() * formats.size());
      seen.insert({runs[i].matrix, runs[i].run.format});
    }
    EXPECT_EQ(seen.size(), runs.size()) << "duplicate (matrix, format) events";
    EXPECT_TRUE(sink->references().empty());
    EXPECT_EQ(csv_of(sink->results(), "memory"), csv_of(sweep.results, "swept"));
  }

  // Both fan-out children observed the identical sequence.
  const auto ra = a->runs();
  const auto rb = b->runs();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].matrix, rb[i].matrix);
    EXPECT_EQ(ra[i].run.format, rb[i].run.format);
    EXPECT_EQ(ra[i].done, rb[i].done);
  }
}

TEST(SinkPipeline, ReferenceFailureEventsReachSinks) {
  auto ds = api_dataset();
  ExperimentConfig cfg = api_config();
  cfg.reference_max_restarts = 0;  // impossible budget: every reference fails

  auto mem = std::make_shared<api::MemorySink>();
  const api::SweepResult sweep =
      api::Sweep::over(ds).formats(api_formats()).config(cfg).threads(2).sink(mem).run();

  EXPECT_TRUE(mem->runs().empty());
  const auto refs = mem->references();
  ASSERT_EQ(refs.size(), ds.size());
  std::set<std::string> names;
  for (const auto& e : refs) {
    EXPECT_FALSE(e.failure.empty());
    names.insert(e.matrix);
  }
  EXPECT_EQ(names.size(), ds.size());
  // Retired runs are folded into the final done count.
  EXPECT_EQ(refs.back().done, ds.size() * api_formats().size());
  EXPECT_EQ(sweep.executed_runs, 0u);
}

TEST(SinkPipeline, SolveFaultEventsReachSinksAndRecordFaultRuns) {
  // A solver abort (failpoint-injected here) must not kill the sweep: the
  // run is recorded with outcome "fault", sinks get an on_fault event, and
  // the sweep completes with the faults counted in its stats.
  auto ds = api_dataset();
  const auto formats = api_formats();
  failpoint::arm_from_spec("engine.format_run=error(eio)");

  auto mem = std::make_shared<api::MemorySink>();
  const api::SweepResult sweep =
      api::Sweep::over(ds).formats(formats).config(api_config()).threads(2).sink(mem).run();
  failpoint::disarm_all();

  const std::size_t total = ds.size() * formats.size();
  EXPECT_EQ(sweep.stats.solve_faults, total);
  EXPECT_EQ(sweep.stats.reference_faults, 0u);
  const auto faults = mem->faults();
  ASSERT_EQ(faults.size(), total);
  for (const auto& f : faults) {
    EXPECT_EQ(f.stage, "format");
    EXPECT_FALSE(f.format.empty());
    EXPECT_NE(f.what.find("injected"), std::string::npos);
  }
  // Every recorded run carries the fault outcome and a failure message.
  for (const auto& mr : sweep.results) {
    ASSERT_EQ(mr.runs.size(), formats.size());
    for (const auto& run : mr.runs) {
      EXPECT_EQ(run.outcome, RunOutcome::fault);
      EXPECT_NE(run.failure.find("solve aborted"), std::string::npos);
    }
  }
  EXPECT_TRUE(mem->done());
}

TEST(SinkPipeline, ReferenceFaultDegradesToReferenceFailure) {
  auto ds = api_dataset();
  failpoint::arm_from_spec("engine.reference=error(eio)");

  auto mem = std::make_shared<api::MemorySink>();
  const api::SweepResult sweep =
      api::Sweep::over(ds).formats(api_formats()).config(api_config()).threads(2).sink(mem).run();
  failpoint::disarm_all();

  EXPECT_EQ(sweep.stats.reference_faults, ds.size());
  const auto faults = mem->faults();
  ASSERT_EQ(faults.size(), ds.size());
  for (const auto& f : faults) EXPECT_EQ(f.stage, "reference");
  // An aborted reference retires the matrix like a failed reference solve:
  // no format runs execute, and the failure is announced to sinks.
  EXPECT_TRUE(mem->runs().empty());
  EXPECT_EQ(mem->references().size(), ds.size());
  for (const auto& mr : sweep.results) {
    EXPECT_FALSE(mr.reference_ok);
    EXPECT_NE(mr.reference_failure.find("reference solve aborted"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume through the builder
// ---------------------------------------------------------------------------

TEST(SweepBuilder, ResumeReplaysCompletedJournalWithoutWork) {
  const auto ds = api_dataset();
  const auto formats = api_formats();
  const auto cfg = api_config();
  const std::string ck = "test_out/api_resume.jsonl";
  std::remove(ck.c_str());

  const api::SweepResult full =
      api::Sweep::over(ds).formats(formats).config(cfg).threads(2).checkpoint(ck).run();
  EXPECT_EQ(full.executed_runs, ds.size() * formats.size());

  auto mem = std::make_shared<api::MemorySink>();
  const api::SweepResult resumed = api::Sweep::over(ds)
                                       .formats(formats)
                                       .config(cfg)
                                       .threads(2)
                                       .checkpoint(ck)
                                       .resume()
                                       .sink(mem)
                                       .run();
  EXPECT_EQ(resumed.executed_runs, 0u);  // everything replayed from the journal
  EXPECT_TRUE(mem->runs().empty());      // replayed runs are not re-announced
  EXPECT_TRUE(mem->done());              // but the pipeline still completes
  EXPECT_EQ(csv_of(resumed.results, "resumed"), csv_of(full.results, "full"));
  std::remove(ck.c_str());
}

// ---------------------------------------------------------------------------
// Invalid builder state
// ---------------------------------------------------------------------------

TEST(SweepBuilder, RejectsInvalidState) {
  const auto ds = api_dataset();

  // Empty corpus.
  EXPECT_THROW((void)api::Sweep::over({}).formats({FormatId::float64}).run(),
               std::invalid_argument);
  // Empty formats.
  EXPECT_THROW((void)api::Sweep::over(ds).run(), std::invalid_argument);
  // Duplicate formats.
  EXPECT_THROW(
      (void)api::Sweep::over(ds).formats({FormatId::float64, FormatId::float64}).run(),
      std::invalid_argument);
  // Unknown / duplicate format keys (thrown at formats(), before run()).
  EXPECT_THROW((void)api::Sweep::over(ds).formats("f64,nope"), std::invalid_argument);
  EXPECT_THROW((void)api::Sweep::over(ds).formats("f64,f64"), std::invalid_argument);
  // nev == 0.
  EXPECT_THROW((void)api::Sweep::over(ds).formats({FormatId::float64}).nev(0).run(),
               std::invalid_argument);
  // resume without checkpoint.
  EXPECT_THROW((void)api::Sweep::over(ds).formats({FormatId::float64}).resume().run(),
               std::invalid_argument);

  // Checkpoint directory that cannot exist: parent path routed through a
  // regular file.
  ensure_directory("test_out");
  const std::string blocker = "test_out/api_blocker";
  { std::ofstream out(blocker, std::ios::trunc); }
  EXPECT_THROW((void)api::Sweep::over(ds)
                   .formats({FormatId::float64})
                   .checkpoint(blocker + "/journal.jsonl")
                   .run(),
               std::invalid_argument);
  std::remove(blocker.c_str());
}

TEST(SweepResult, FindHelpers) {
  const auto ds = api_dataset();
  const api::SweepResult sweep = api::Sweep::over(ds)
                                     .formats({FormatId::takum16, FormatId::float64})
                                     .config(api_config())
                                     .threads(1)
                                     .run();
  ASSERT_NE(sweep.find("api_er_a"), nullptr);
  EXPECT_EQ(sweep.find("api_er_a")->name, "api_er_a");
  const FormatRun* run = sweep.find("api_er_a", FormatId::takum16);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->format, FormatId::takum16);
  EXPECT_EQ(sweep.find("nonexistent"), nullptr);
  EXPECT_EQ(sweep.find("api_er_a", FormatId::posit8), nullptr);
}

}  // namespace
}  // namespace mfla

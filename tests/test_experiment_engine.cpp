// Task-parallel engine tests, driven through api::Sweep: thread-count
// invariance (bit-identical CSVs), checkpoint journal round-trips, resume
// after a simulated crash, meta validation, and reference-failure
// journaling. Cross-checks against a serial per-matrix pipeline written out
// over the public stages.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/sinks.hpp"
#include "api/sweep.hpp"
#include "core/experiment.hpp"
#include "core/results_io.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

std::vector<TestMatrix> engine_dataset() {
  std::vector<TestMatrix> ds;
  Rng r1(3001), r2(3002), r3(3003);
  ds.push_back(make_test_matrix("eng_er_a", "social", "soc",
                                graph_laplacian_pipeline(erdos_renyi(44, 0.15, r1))));
  ds.push_back(make_test_matrix("eng_sbm_b", "social", "soc",
                                graph_laplacian_pipeline(stochastic_block(48, 2, 0.35, 0.06, r2))));
  ds.push_back(make_test_matrix("eng_er_c", "biological", "protein",
                                graph_laplacian_pipeline(erdos_renyi(52, 0.12, r3))));
  return ds;
}

std::vector<FormatId> engine_formats() {
  return {FormatId::float32, FormatId::takum16, FormatId::float64};
}

ExperimentConfig engine_config() {
  ExperimentConfig cfg;
  cfg.nev = 6;
  cfg.buffer = 2;
  cfg.max_restarts = 80;
  cfg.reference_max_restarts = 150;
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
  const std::string path = "test_out/engine_" + tag + ".csv";
  write_results_csv(path, results);
  std::string data = slurp(path);
  std::remove(path.c_str());
  return data;
}

/// The serial per-matrix pipeline over the public stages (tiered reference
/// solve, then every format in order on the calling thread): the oracle
/// the scheduled engine must reproduce bit for bit.
MatrixResult serial_matrix_oracle(const TestMatrix& tm, const std::vector<FormatId>& formats,
                                  const ExperimentConfig& cfg) {
  MatrixResult res;
  res.name = tm.name;
  res.klass = tm.klass;
  res.category = tm.category;
  res.n = tm.n();
  res.nnz = tm.nnz();
  Rng rng(tm.name, cfg.seed);
  const std::vector<double> start = rng.unit_vector(tm.n());
  const ReferenceSolution ref = compute_reference_tiered(tm, cfg, start).solution;
  res.reference_ok = ref.ok;
  res.reference_failure = ref.failure;
  if (!ref.ok) return res;
  for (const FormatId id : formats) res.runs.push_back(run_format_dynamic(tm, ref, cfg, start, id));
  return res;
}

/// A sweep of `ds` over the engine formats; each test adds its options.
api::Sweep engine_sweep(const std::vector<TestMatrix>& ds, const ExperimentConfig& cfg) {
  return api::Sweep::over(ds).formats(engine_formats()).config(cfg);
}

/// The run total the sweep observed by `mem` announced: how many runs that
/// invocation had to produce. 0 when it announced nothing at all — a resume
/// that replayed everything from the journal.
std::size_t announced_total(const api::MemorySink& mem) {
  const auto runs = mem.runs();
  if (!runs.empty()) return runs.back().total;
  const auto refs = mem.references();
  return refs.empty() ? 0 : refs.back().total;
}

TEST(ExperimentEngine, ThreadCountInvariantResults) {
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  const auto cfg = engine_config();

  const auto r1 = engine_sweep(ds, cfg).threads(1).run().results;
  const auto r4 = engine_sweep(ds, cfg).threads(4).run().results;
  // The serial per-matrix pipeline must agree too.
  std::vector<MatrixResult> expected;
  expected.reserve(ds.size());
  for (const auto& tm : ds) expected.push_back(serial_matrix_oracle(tm, formats, cfg));

  const std::string csv1 = csv_of(r1, "t1");
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv_of(r4, "t4"));
  EXPECT_EQ(csv1, csv_of(expected, "seq"));
}

TEST(ExperimentEngine, JournalRoundTrip) {
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  const auto cfg = engine_config();
  const std::string ck = "test_out/engine_journal.jsonl";
  std::remove(ck.c_str());

  const auto results = engine_sweep(ds, cfg).threads(2).checkpoint(ck).run().results;
  for (const auto& r : results) ASSERT_TRUE(r.reference_ok) << r.reference_failure;

  const JournalContents jc = read_journal(ck);
  EXPECT_TRUE(jc.has_meta);
  EXPECT_EQ(jc.meta, make_journal_meta(cfg, formats, ds.size()));
  EXPECT_EQ(jc.skipped_lines, 0u);
  EXPECT_TRUE(jc.reference_failures.empty());
  ASSERT_EQ(jc.runs.size(), ds.size() * formats.size());
  for (const auto& mr : results) {
    for (const auto& run : mr.runs) {
      const auto it = jc.runs.find({mr.name, run.format});
      ASSERT_NE(it, jc.runs.end());
      EXPECT_EQ(it->second.n, mr.n);
      EXPECT_EQ(it->second.nnz, mr.nnz);
      EXPECT_EQ(it->second.run.outcome, run.outcome);
      // Exact round-trip: doubles survive the journal bit-for-bit.
      EXPECT_EQ(it->second.run.eigenvalue_error.relative, run.eigenvalue_error.relative);
      EXPECT_EQ(it->second.run.eigenvector_error.relative, run.eigenvector_error.relative);
      EXPECT_EQ(it->second.run.mean_similarity, run.mean_similarity);
      EXPECT_EQ(it->second.run.matvecs, run.matvecs);
    }
  }
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, ResumeAfterTruncationMatchesUninterruptedRun) {
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  const auto cfg = engine_config();
  const std::string ck_full = "test_out/engine_full.jsonl";
  const std::string ck_cut = "test_out/engine_cut.jsonl";
  std::remove(ck_full.c_str());

  const std::string csv_full =
      csv_of(engine_sweep(ds, cfg).threads(2).checkpoint(ck_full).run().results, "full");

  // Simulate a crash: keep the meta line plus the first three completed
  // runs, then a torn final line from a write that was killed mid-flight.
  {
    std::ifstream in(ck_full);
    std::ofstream out(ck_cut, std::ios::trunc);
    std::string line;
    for (int kept = 0; kept < 4 && std::getline(in, line); ++kept) out << line << '\n';
    out << "{\"type\":\"run\",\"matrix\":\"eng_";  // torn write, no newline
  }

  const auto resume = [&](const std::shared_ptr<api::MemorySink>& mem) {
    return engine_sweep(ds, cfg).threads(2).checkpoint(ck_cut).resume().sink(mem).run().results;
  };
  auto mem = std::make_shared<api::MemorySink>();
  const std::string csv_resumed = csv_of(resume(mem), "resumed");

  EXPECT_EQ(csv_full, csv_resumed);
  // Only the missing runs were scheduled (9 total, 3 were journaled).
  EXPECT_EQ(announced_total(*mem), ds.size() * formats.size() - 3);
  // The journal is now complete again: a second resume schedules nothing.
  auto noop = std::make_shared<api::MemorySink>();
  const std::string csv_noop = csv_of(resume(noop), "noop");
  EXPECT_EQ(csv_full, csv_noop);
  EXPECT_EQ(announced_total(*noop), 0u);

  std::remove(ck_full.c_str());
  std::remove(ck_cut.c_str());
}

TEST(ExperimentEngine, ResumeRestoresTornMetaLine) {
  // A crash during the very first journal write leaves a torn meta line.
  // Resuming must rewrite the meta so later resumes still validate.
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  const auto cfg = engine_config();
  const std::string ck = "test_out/engine_torn_meta.jsonl";
  {
    std::ofstream out(ck, std::ios::trunc);
    out << "{\"type\":\"meta\",\"nev\"";  // torn, no newline
  }
  (void)engine_sweep(ds, cfg).threads(2).checkpoint(ck).resume().run();
  const JournalContents jc = read_journal(ck);
  EXPECT_TRUE(jc.has_meta);
  EXPECT_EQ(jc.meta, make_journal_meta(cfg, formats, ds.size()));

  ExperimentConfig other = cfg;
  other.nev = cfg.nev + 1;
  EXPECT_THROW((void)engine_sweep(ds, other).threads(2).checkpoint(ck).resume().run(),
               std::runtime_error);
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, ResumeRejectsMismatchedMeta) {
  const auto ds = engine_dataset();
  const auto cfg = engine_config();
  const std::string ck = "test_out/engine_meta.jsonl";
  std::remove(ck.c_str());

  (void)engine_sweep(ds, cfg).threads(1).checkpoint(ck).run();

  ExperimentConfig other = cfg;
  other.nev = cfg.nev + 1;
  EXPECT_THROW((void)engine_sweep(ds, other).threads(1).checkpoint(ck).resume().run(),
               std::runtime_error);
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, ReferenceFailureJournaledAndSkippedOnResume) {
  const auto ds = engine_dataset();
  ExperimentConfig cfg = engine_config();
  cfg.reference_max_restarts = 0;  // impossible budget: every reference fails
  const std::string ck = "test_out/engine_reffail.jsonl";
  std::remove(ck.c_str());

  const auto results = engine_sweep(ds, cfg).threads(2).checkpoint(ck).run().results;
  for (const auto& r : results) {
    EXPECT_FALSE(r.reference_ok);
    EXPECT_TRUE(r.runs.empty());
  }
  const JournalContents jc = read_journal(ck);
  EXPECT_EQ(jc.reference_failures.size(), ds.size());
  EXPECT_TRUE(jc.runs.empty());

  auto mem = std::make_shared<api::MemorySink>();
  const auto resumed =
      engine_sweep(ds, cfg).threads(2).checkpoint(ck).resume().sink(mem).run().results;
  EXPECT_EQ(announced_total(*mem), 0u);  // failures were replayed, not recomputed
  EXPECT_EQ(csv_of(results, "reffail_a"), csv_of(resumed, "reffail_b"));
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, FaultRunsJournaledAndReplayedOnResume) {
  // Solver aborts (failpoint-injected) are recorded as `fault` runs; the
  // journal must round-trip that outcome, and a resume must replay the
  // faulted runs instead of re-solving them.
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  const ExperimentConfig cfg = engine_config();
  const std::string ck = "test_out/engine_fault.jsonl";
  std::remove(ck.c_str());

  failpoint::arm_from_spec("engine.format_run=error(eio)");
  const api::SweepResult faulted = engine_sweep(ds, cfg).threads(2).checkpoint(ck).run();
  failpoint::disarm_all();
  const auto& results = faulted.results;
  EXPECT_EQ(faulted.stats.solve_faults, ds.size() * formats.size());
  for (const auto& r : results)
    for (const auto& run : r.runs) EXPECT_EQ(run.outcome, RunOutcome::fault);

  const JournalContents jc = read_journal(ck);
  ASSERT_EQ(jc.runs.size(), ds.size() * formats.size());
  for (const auto& [key, jr] : jc.runs) EXPECT_EQ(jr.run.outcome, RunOutcome::fault);

  auto mem = std::make_shared<api::MemorySink>();
  const api::SweepResult resumed =
      engine_sweep(ds, cfg).threads(2).checkpoint(ck).resume().sink(mem).run();
  EXPECT_EQ(announced_total(*mem), 0u);  // everything replayed, nothing re-solved
  EXPECT_EQ(resumed.stats.journal_replayed_runs, ds.size() * formats.size());
  EXPECT_EQ(csv_of(results, "fault_a"), csv_of(resumed.results, "fault_b"));
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, ResumeRecomputesMatrixWhoseContentsChanged) {
  // Journal entries are stamped with (n, nnz); if a same-named matrix now
  // has different contents, its runs recompute instead of replaying stale
  // results.
  auto ds = engine_dataset();
  const auto formats = engine_formats();
  const auto cfg = engine_config();
  const std::string ck = "test_out/engine_stale.jsonl";
  std::remove(ck.c_str());

  (void)engine_sweep(ds, cfg).threads(2).checkpoint(ck).run();

  Rng rng(3100);
  ds[0] = make_test_matrix(ds[0].name, ds[0].klass, ds[0].category,
                           graph_laplacian_pipeline(erdos_renyi(40, 0.18, rng)));
  auto mem = std::make_shared<api::MemorySink>();
  const auto resumed =
      engine_sweep(ds, cfg).threads(2).checkpoint(ck).resume().sink(mem).run().results;
  EXPECT_EQ(announced_total(*mem), formats.size());  // only the changed matrix was rerun
  EXPECT_EQ(resumed[0].n, ds[0].n());
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, CheckpointRequiresUniqueMatrixNames) {
  auto ds = engine_dataset();
  ds.push_back(ds.front());  // duplicate name
  const std::string ck = "test_out/engine_dup.jsonl";
  EXPECT_THROW((void)engine_sweep(ds, engine_config()).checkpoint(ck).run(), std::runtime_error);
  std::remove(ck.c_str());
}

}  // namespace
}  // namespace mfla

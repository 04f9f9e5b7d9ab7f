// Task-parallel engine tests: thread-count invariance (bit-identical CSVs),
// checkpoint journal round-trips, resume after a simulated crash, meta
// validation, and reference-failure journaling. Cross-checks against a
// serial per-matrix pipeline written out over the public stages.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

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

/// Route every progress snapshot the engine hands out — completed runs and
/// reference failures that retire a matrix — to `fn`.
void observe_progress(ScheduleOptions& sched, std::function<void(const ExperimentProgress&)> fn) {
  sched.on_run = [fn](const TestMatrix&, const FormatRun&, const ExperimentProgress& p) { fn(p); };
  sched.on_reference_failure = [fn](const TestMatrix&, const std::string&,
                                    const ExperimentProgress& p) { fn(p); };
}

TEST(ExperimentEngine, ThreadCountInvariantResults) {
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  const auto cfg = engine_config();

  ScheduleOptions serial;
  serial.threads = 1;
  ScheduleOptions parallel;
  parallel.threads = 4;

  const auto r1 = run_experiment(ds, formats, cfg, serial);
  const auto r4 = run_experiment(ds, formats, cfg, parallel);
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

  ScheduleOptions sched;
  sched.threads = 2;
  sched.checkpoint_path = ck;
  const auto results = run_experiment(ds, formats, cfg, sched);
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

  ScheduleOptions sched;
  sched.threads = 2;
  sched.checkpoint_path = ck_full;
  const std::string csv_full = csv_of(run_experiment(ds, formats, cfg, sched), "full");

  // Simulate a crash: keep the meta line plus the first three completed
  // runs, then a torn final line from a write that was killed mid-flight.
  {
    std::ifstream in(ck_full);
    std::ofstream out(ck_cut, std::ios::trunc);
    std::string line;
    for (int kept = 0; kept < 4 && std::getline(in, line); ++kept) out << line << '\n';
    out << "{\"type\":\"run\",\"matrix\":\"eng_";  // torn write, no newline
  }

  ScheduleOptions resume;
  resume.threads = 2;
  resume.checkpoint_path = ck_cut;
  resume.resume = true;
  std::size_t resumed_total = 0;
  observe_progress(resume,
                   [&resumed_total](const ExperimentProgress& p) { resumed_total = p.total; });
  const std::string csv_resumed = csv_of(run_experiment(ds, formats, cfg, resume), "resumed");

  EXPECT_EQ(csv_full, csv_resumed);
  // Only the missing runs were scheduled (9 total, 3 were journaled).
  EXPECT_EQ(resumed_total, ds.size() * formats.size() - 3);
  // The journal is now complete again: a second resume schedules nothing.
  ScheduleOptions noop = resume;
  bool progressed = false;
  observe_progress(noop, [&progressed](const ExperimentProgress&) { progressed = true; });
  const std::string csv_noop = csv_of(run_experiment(ds, formats, cfg, noop), "noop");
  EXPECT_EQ(csv_full, csv_noop);
  EXPECT_FALSE(progressed);

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
  ScheduleOptions resume;
  resume.threads = 2;
  resume.checkpoint_path = ck;
  resume.resume = true;
  (void)run_experiment(ds, formats, cfg, resume);
  const JournalContents jc = read_journal(ck);
  EXPECT_TRUE(jc.has_meta);
  EXPECT_EQ(jc.meta, make_journal_meta(cfg, formats, ds.size()));

  ExperimentConfig other = cfg;
  other.nev = cfg.nev + 1;
  EXPECT_THROW((void)run_experiment(ds, formats, other, resume), std::runtime_error);
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, ResumeRejectsMismatchedMeta) {
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  const auto cfg = engine_config();
  const std::string ck = "test_out/engine_meta.jsonl";
  std::remove(ck.c_str());

  ScheduleOptions sched;
  sched.threads = 1;
  sched.checkpoint_path = ck;
  (void)run_experiment(ds, formats, cfg, sched);

  ExperimentConfig other = cfg;
  other.nev = cfg.nev + 1;
  ScheduleOptions resume = sched;
  resume.resume = true;
  EXPECT_THROW((void)run_experiment(ds, formats, other, resume), std::runtime_error);
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, ReferenceFailureJournaledAndSkippedOnResume) {
  const auto ds = engine_dataset();
  const auto formats = engine_formats();
  ExperimentConfig cfg = engine_config();
  cfg.reference_max_restarts = 0;  // impossible budget: every reference fails
  const std::string ck = "test_out/engine_reffail.jsonl";
  std::remove(ck.c_str());

  ScheduleOptions sched;
  sched.threads = 2;
  sched.checkpoint_path = ck;
  const auto results = run_experiment(ds, formats, cfg, sched);
  for (const auto& r : results) {
    EXPECT_FALSE(r.reference_ok);
    EXPECT_TRUE(r.runs.empty());
  }
  const JournalContents jc = read_journal(ck);
  EXPECT_EQ(jc.reference_failures.size(), ds.size());
  EXPECT_TRUE(jc.runs.empty());

  ScheduleOptions resume = sched;
  resume.resume = true;
  bool progressed = false;
  observe_progress(resume, [&progressed](const ExperimentProgress&) { progressed = true; });
  const auto resumed = run_experiment(ds, formats, cfg, resume);
  EXPECT_FALSE(progressed);  // failures were replayed, not recomputed
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
  SweepStats stats;
  ScheduleOptions sched;
  sched.threads = 2;
  sched.checkpoint_path = ck;
  sched.stats = &stats;
  const auto results = run_experiment(ds, formats, cfg, sched);
  failpoint::disarm_all();
  EXPECT_EQ(stats.solve_faults, ds.size() * formats.size());
  for (const auto& r : results)
    for (const auto& run : r.runs) EXPECT_EQ(run.outcome, RunOutcome::fault);

  const JournalContents jc = read_journal(ck);
  ASSERT_EQ(jc.runs.size(), ds.size() * formats.size());
  for (const auto& [key, jr] : jc.runs) EXPECT_EQ(jr.run.outcome, RunOutcome::fault);

  SweepStats resume_stats;
  ScheduleOptions resume = sched;
  resume.resume = true;
  resume.stats = &resume_stats;
  bool progressed = false;
  observe_progress(resume, [&progressed](const ExperimentProgress&) { progressed = true; });
  const auto resumed = run_experiment(ds, formats, cfg, resume);
  EXPECT_FALSE(progressed);  // everything replayed, nothing re-solved
  EXPECT_EQ(resume_stats.journal_replayed_runs, ds.size() * formats.size());
  EXPECT_EQ(csv_of(results, "fault_a"), csv_of(resumed, "fault_b"));
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

  ScheduleOptions sched;
  sched.threads = 2;
  sched.checkpoint_path = ck;
  (void)run_experiment(ds, formats, cfg, sched);

  Rng rng(3100);
  ds[0] = make_test_matrix(ds[0].name, ds[0].klass, ds[0].category,
                           graph_laplacian_pipeline(erdos_renyi(40, 0.18, rng)));
  ScheduleOptions resume = sched;
  resume.resume = true;
  std::size_t total = 0;
  observe_progress(resume, [&total](const ExperimentProgress& p) { total = p.total; });
  const auto resumed = run_experiment(ds, formats, cfg, resume);
  EXPECT_EQ(total, formats.size());  // only the changed matrix was rerun
  EXPECT_EQ(resumed[0].n, ds[0].n());
  std::remove(ck.c_str());
}

TEST(ExperimentEngine, CheckpointRequiresUniqueMatrixNames) {
  auto ds = engine_dataset();
  ds.push_back(ds.front());  // duplicate name
  ScheduleOptions sched;
  sched.checkpoint_path = "test_out/engine_dup.jsonl";
  EXPECT_THROW((void)run_experiment(ds, engine_formats(), engine_config(), sched),
               std::runtime_error);
  std::remove(sched.checkpoint_path.c_str());
}

}  // namespace
}  // namespace mfla

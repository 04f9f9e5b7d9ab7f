// mfla_experiment: command-line driver for the paper's evaluation pipeline,
// built entirely on the mfla::api facade (Sweep + ResultSink pipeline).
//
// Run the multi-format eigenvalue experiment on your own matrices or on
// the built-in corpora, and write the raw per-run results + cumulative
// distributions as CSV. Sweeps run on the task-parallel engine; with
// --checkpoint every completed run is journaled so --resume restarts an
// interrupted sweep with only the missing runs, and --ref-cache keeps a
// persistent content-addressed cache of the float128 reference solutions.
//
// Try: mfla_experiment --help, mfla_experiment --list-formats.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"

#include "cli_args.hpp"

namespace {

using namespace mfla;

// Exit codes, so scripts (CI, mfla_crashtest) can tell failure classes
// apart: 0 success, 2 usage error, 3 I/O failure (journal, CSV, dataset
// files, disk full), 4 solve failure (solver aborts recorded by the solve
// guard, or an unexpected engine exception), 5 interrupted (SIGINT/SIGTERM
// drained the sweep; with --checkpoint the journal holds every completed
// run and --resume finishes the rest).
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitSolve = 4;
constexpr int kExitInterrupted = 5;

// Flipped by the SIGINT/SIGTERM handler and polled by the engine as the
// sweep's cooperative cancel flag: queued runs are skipped, in-flight runs
// finish and reach the journal, then run() returns with canceled_runs set.
std::atomic<bool> g_interrupted{false};

extern "C" void handle_interrupt(int) { g_interrupted.store(true, std::memory_order_relaxed); }

void install_interrupt_handler() {
  struct sigaction sa{};
  sa.sa_handler = handle_interrupt;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a sweep blocked in I/O should see EINTR promptly.
  (void)sigaction(SIGINT, &sa, nullptr);
  (void)sigaction(SIGTERM, &sa, nullptr);
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: mfla_experiment (--corpus NAME | files...) [--count N] [--nev K]\n"
      "       [--buffer B] [--restarts R] [--formats keys] [--out prefix]\n"
      "       [--threads N] [--checkpoint FILE] [--resume] [--ref-cache DIR]\n"
      "       [--ref-tier TIER] [--list-formats] [--help]\n");
}

[[noreturn]] void usage_error() {
  print_usage(stderr);
  std::exit(kExitUsage);
}

[[noreturn]] void print_help() {
  print_usage(stdout);
  const ExperimentConfig defaults;
  std::printf(
      "\nRun the paper's multi-format IRAM evaluation pipeline: for every\n"
      "(matrix, format) pair, solve the partial eigenproblem in that format,\n"
      "match eigenpairs against a float128 reference and classify the outcome\n"
      "(ok / no convergence / dynamic range exceeded). Results are written as\n"
      "one raw CSV plus per-width cumulative error distribution CSVs.\n"
      "\ninputs:\n"
      "  --corpus NAME      built-in dataset: general (synthetic SuiteSparse\n"
      "                     stand-in) or biological|infrastructure|social|\n"
      "                     miscellaneous (graph corpora)\n"
      "  files...           .mtx Matrix Market files (symmetrized if needed) or\n"
      "                     .edges edge lists (converted to graph Laplacians)\n"
      "\noptions:\n"
      "  --count N          matrices per corpus class (default %zu)\n"
      "  --nev K            eigenpairs scored per run (default %zu)\n"
      "  --buffer B         extra pairs computed for matching (default %zu)\n"
      "  --restarts R       per-format restart budget (default %d)\n"
      "  --formats keys     comma-separated format keys (default\n"
      "                     %s;\n"
      "                     see --list-formats)\n"
      "  --out prefix       CSV output prefix (default out/experiment)\n"
      "  --threads N        worker threads; 0 = all cores (default 0)\n"
      "  --checkpoint FILE  JSONL journal; every completed run is appended\n"
      "                     and flushed\n"
      "  --resume           replay the checkpoint journal and run only the\n"
      "                     missing runs (requires --checkpoint)\n"
      "  --ref-cache DIR    persistent cache of reference solutions; warm\n"
      "                     reruns skip the reference solves entirely\n"
      "  --ref-tier TIER    reference arithmetic tier (default %s): f128_only\n"
      "                     (every reference solve in float128) or dd_first\n"
      "                     (try double-double, certify the residual bound,\n"
      "                     promote to float128 when uncertifiable)\n"
      "  --list-formats     print the format table (key, name, bits, family)\n"
      "  --help, -h         this help\n",
      kDefaultCorpusCount, defaults.nev, defaults.buffer, defaults.max_restarts,
      format_keys(api::evaluation_formats()).c_str(),
      reference_tier_name(defaults.reference_tier));
  std::exit(0);
}

[[noreturn]] void print_format_table() {
  std::printf("%-6s %-10s %5s  %s\n", "key", "name", "bits", "family");
  for (const auto& f : all_formats()) {
    std::printf("%-6s %-10s %5d  %s%s\n", f.key.c_str(), f.name.c_str(), f.bits,
                f.family.c_str(),
                f.reference_only ? "  (reference arithmetic; not selectable)" : "");
  }
  std::exit(0);
}

std::uint64_t parse_uint(const char* option, const std::string& value, std::uint64_t max) {
  return cli::parse_uint(option, value, max, print_usage, kExitUsage);
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus;
  ExperimentConfig cfg;
  std::string out_prefix = "out/experiment";
  std::string formats_spec = format_keys(api::evaluation_formats());
  std::string ref_cache_dir;
  std::string ref_tier_spec = reference_tier_name(cfg.reference_tier);
  std::string checkpoint_path;
  bool resume = false;
  std::size_t count = kDefaultCorpusCount;
  std::size_t threads = 0;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        usage_error();
      }
      return argv[++i];
    };
    if (arg == "--corpus") {
      corpus = next();
    } else if (arg == "--count") {
      count = static_cast<std::size_t>(parse_uint("--count", next(), kMaxCorpusCount));
    } else if (arg == "--nev") {
      cfg.nev = static_cast<std::size_t>(parse_uint("--nev", next(), kMaxEigenpairs));
    } else if (arg == "--buffer") {
      cfg.buffer = static_cast<std::size_t>(parse_uint("--buffer", next(), kMaxEigenpairs));
    } else if (arg == "--restarts") {
      cfg.max_restarts = static_cast<int>(parse_uint("--restarts", next(), kMaxRestarts));
    } else if (arg == "--threads") {
      threads = static_cast<std::size_t>(parse_uint("--threads", next(), 4096));
    } else if (arg == "--checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--ref-cache") {
      ref_cache_dir = next();
    } else if (arg == "--ref-tier") {
      ref_tier_spec = next();
    } else if (arg == "--formats") {
      formats_spec = next();
    } else if (arg == "--out") {
      out_prefix = next();
    } else if (arg == "--list-formats") {
      print_format_table();
    } else if (arg == "--help" || arg == "-h") {
      print_help();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage_error();
    } else {
      files.push_back(arg);
    }
  }
  if (corpus.empty() && files.empty()) usage_error();
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
    usage_error();
  }

  // Formats come straight from the registry; unknown or duplicate keys are
  // rejected with the list of valid ones.
  std::vector<FormatId> formats;
  try {
    formats = parse_format_keys(formats_spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--formats: %s\n", e.what());
    return kExitUsage;
  }

  try {
    cfg.reference_tier = reference_tier_from_name(ref_tier_spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--ref-tier: %s\n", e.what());
    return kExitUsage;
  }

  // Assemble the dataset.
  std::vector<TestMatrix> dataset;
  try {
    if (!corpus.empty()) dataset = build_named_corpus(corpus, count);
    for (const auto& path : files)
      dataset.push_back(make_test_matrix(path, "user", "user", read_matrix_file(path)));
  } catch (const std::invalid_argument& e) {
    // An unknown corpus name; the readers report bad files as runtime_error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    // Everything else is input I/O: unreadable or malformed matrix files.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitIo;
  }
  if (dataset.empty()) {
    std::fprintf(stderr, "no matrices to run\n");
    return kExitUsage;
  }

  const std::string threads_desc = threads == 0 ? "auto" : std::to_string(threads);
  std::printf(
      "running %zu matrices x %zu formats (nev=%zu buffer=%zu restarts=%d threads=%s "
      "ref-tier=%s)\n",
      dataset.size(), formats.size(), cfg.nev, cfg.buffer, cfg.max_restarts,
      threads_desc.c_str(), reference_tier_name(cfg.reference_tier));
  if (!checkpoint_path.empty()) {
    std::printf("checkpoint journal: %s%s\n", checkpoint_path.c_str(),
                resume ? " (resuming)" : "");
  }
  if (!ref_cache_dir.empty()) std::printf("reference cache: %s\n", ref_cache_dir.c_str());

  install_interrupt_handler();

  api::SweepResult result;
  try {
    api::Sweep sweep = api::Sweep::over(std::move(dataset));
    sweep.formats(formats)
        .config(cfg)
        .threads(threads)
        .cancel(&g_interrupted)
        .sink(std::make_shared<api::ProgressSink>(stderr))
        .sink(std::make_shared<api::CsvSink>(out_prefix + "_raw.csv"));
    if (!checkpoint_path.empty()) sweep.checkpoint(checkpoint_path).resume(resume);
    if (!ref_cache_dir.empty()) sweep.cache(ref_cache_dir);
    result = sweep.run();
  } catch (const IoError& e) {
    // Durability failures fail fast and loud: a journal that cannot be
    // written means checkpoints are being lost, not "the sweep mostly
    // worked". Same for an unwritable results CSV.
    std::fprintf(stderr, "\nI/O error: %s\n", e.what());
    return kExitIo;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "\nerror: %s\n", e.what());
    return kExitUsage;
  } catch (const JournalMismatchError& e) {
    // --resume against a journal of another sweep: the flags are wrong.
    std::fprintf(stderr, "\nerror: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "\nerror: %s\n", e.what());
    return kExitSolve;
  }

  if (result.stats.canceled_runs != 0 || g_interrupted.load(std::memory_order_relaxed)) {
    // No CSVs for a drained sweep (CsvSink already skipped the raw file): a
    // partial CSV is indistinguishable from a complete one. The journal is
    // the artifact that survives an interrupt.
    std::fprintf(stderr, "\ninterrupted: %zu queued runs skipped, in-flight runs journaled\n",
                 result.stats.canceled_runs);
    if (!checkpoint_path.empty()) {
      std::fprintf(stderr, "re-run with --checkpoint %s --resume to finish the sweep\n",
                   checkpoint_path.c_str());
    } else {
      std::fprintf(stderr,
                   "(no --checkpoint journal; a re-run starts from scratch)\n");
    }
    return kExitInterrupted;
  }

  if (result.cache_attached) {
    const RefCacheStats cs = result.cache;
    std::printf(
        "reference cache: %llu hits, %llu misses, %llu stored, %llu rejected "
        "(%.1fs of reference solves%s)\n",
        static_cast<unsigned long long>(cs.hits), static_cast<unsigned long long>(cs.misses),
        static_cast<unsigned long long>(cs.stores), static_cast<unsigned long long>(cs.rejects),
        result.stats.reference_seconds,
        result.stats.reference_solves == 0 ? " — fully warm" : "");
    if (cs.quarantined + cs.store_failures + cs.store_retries > 0 || cs.degraded)
      std::printf(
          "reference cache health: %llu quarantined, %llu store retries, %llu store "
          "failures%s\n",
          static_cast<unsigned long long>(cs.quarantined),
          static_cast<unsigned long long>(cs.store_retries),
          static_cast<unsigned long long>(cs.store_failures),
          cs.degraded ? " — DEGRADED to recompute-only (cache dir unwritable or disk full)"
                      : "");
    // Per-stage times are summed across worker threads; the wall figure is
    // the sweep's elapsed time.
    std::printf(
        "stage wall-clock: reference %.1fs, cache serving %.1fs, format runs %.1fs "
        "summed over workers (sweep wall %.1fs)\n",
        result.stats.reference_seconds, result.stats.reference_cache_seconds,
        result.stats.format_seconds, result.elapsed_seconds);
  }
  if (cfg.reference_tier == ReferenceTier::dd_first) {
    std::printf(
        "reference tier: %zu dd solves (%zu certified, %zu promoted to float128), "
        "dd %.1fs, float128 %.1fs\n",
        result.stats.reference_dd_solves, result.stats.reference_dd_certified,
        result.stats.reference_promotions, result.stats.reference_dd_seconds,
        result.stats.reference_f128_seconds);
  }

  for (const int bits : {8, 16, 32, 64}) {
    std::vector<Distribution> eig, vec;
    for (const auto& f : formats) {
      if (format_info(f).bits != bits) continue;
      eig.push_back(build_distribution(result.results, f, false));
      vec.push_back(build_distribution(result.results, f, true));
    }
    if (eig.empty()) continue;
    const std::string width = std::to_string(bits) + "-bit ";
    std::printf("%s", ascii_panel(eig, width + "eigenvalue relative errors").c_str());
    std::printf("%s\n", summary_table(eig, width + "eigenvalues").c_str());
    std::printf("%s", ascii_panel(vec, width + "eigenvector relative errors").c_str());
    std::printf("%s\n", summary_table(vec, width + "eigenvectors").c_str());
    write_distribution_csv(out_prefix + "_" + std::to_string(bits) + "bit_eigenvalues.csv", eig);
    write_distribution_csv(out_prefix + "_" + std::to_string(bits) + "bit_eigenvectors.csv", vec);
  }
  if (resume &&
      result.stats.journal_replayed_runs + result.stats.journal_replayed_failures +
              result.stats.journal_discarded_lines + result.stats.journal_truncated_bytes >
          0) {
    std::printf(
        "journal recovery: %zu runs + %zu reference failures replayed, %zu torn/unknown "
        "lines discarded, %zu trailing bytes truncated\n",
        result.stats.journal_replayed_runs, result.stats.journal_replayed_failures,
        result.stats.journal_discarded_lines, result.stats.journal_truncated_bytes);
  }
  std::printf("results written to %s_*.csv\n", out_prefix.c_str());
  if (result.stats.solve_faults + result.stats.reference_faults > 0) {
    std::fprintf(stderr,
                 "solve faults: %zu format runs and %zu reference solves aborted and were "
                 "recorded as structured failures (outcome 'fault' in the CSV)\n",
                 result.stats.solve_faults, result.stats.reference_faults);
    return kExitSolve;
  }
  return kExitOk;
}

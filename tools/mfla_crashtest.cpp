// mfla_crashtest: crash-torture harness for the sweep engine's durability
// layer (docs/ROBUSTNESS.md).
//
// Each cycle runs mfla_experiment with a failpoint armed to `crash`
// (immediate _exit, no flushes — a simulated SIGKILL) at a random
// journal/cache/solve point, then re-runs it with --resume, possibly
// killing the resume too, until a final unarmed run completes. The cycle's
// raw CSV is then byte-compared against an uninterrupted baseline run:
// PR 2's resume guarantee ("byte-identical to an uninterrupted sweep"),
// checked by machine under randomized kill schedules.
//
//   mfla_crashtest --exe ./mfla_experiment [--cycles 20] [--seed 1]
//                  [--workdir out/crashtest] [--count 2]
//                  [--formats f16,p16,t16] [--threads 2] [--keep]
//
// Exit status: 0 if every cycle's CSV matched the baseline, 1 otherwise,
// 2 on a usage error (unknown option, missing or non-numeric value).
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"

namespace {

struct Options {
  std::string exe;
  std::string workdir = "out/crashtest";
  std::string formats = "f16,p16,t16";
  int cycles = 20;
  int count = 2;
  int threads = 2;
  std::uint64_t seed = 1;
  bool keep = false;
};

constexpr int kExitUsage = 2;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mfla_crashtest --exe PATH [--cycles N] [--seed S] [--workdir DIR]\n"
               "       [--count N] [--formats KEYS] [--threads N] [--keep]\n");
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(kExitUsage);
}

std::uint64_t parse_uint(const char* option, const std::string& value, std::uint64_t max) {
  return mfla::cli::parse_uint(option, value, max, print_usage, kExitUsage);
}

// The crash points this harness arms, and the hit range that makes sense
// for each (hit counts are 1-based; a hit count past the run's actual hits
// simply never fires, which exercises the "armed but completed" path).
struct CrashPoint {
  const char* name;
  int max_hit;
};
constexpr CrashPoint kCrashPoints[] = {
    {"journal.append", 8},       // mid-checkpoint kill, torn tail likely
    {"journal.flush", 8},        // after write, before durability
    {"refcache.store.write", 4},  // mid cache-entry write (temp file orphan)
    {"refcache.store.rename", 4},  // between temp write and publish
    {"engine.format_run", 6},    // mid-solve kill, journal mid-sequence
    {"engine.reference", 3},     // before any run of a matrix journaled
    {"csv.write", 1},            // after the sweep, before the results CSV
};

// mfla::failpoint::kCrashExitCode; kept literal so this harness only
// depends on the CLI contract, not on library headers.
constexpr int kCrashExit = 86;

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

/// Run a command through the shell; returns the child's exit status, or -1
/// if it died on a signal / could not be spawned.
int run(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::string experiment_command(const Options& opt, const std::string& out_prefix,
                               const std::string& checkpoint, bool resume,
                               const std::string& cache_dir, const std::string& failpoints,
                               const std::string& log) {
  std::string cmd;
  if (!failpoints.empty()) cmd += "MFLA_FAILPOINTS=" + shell_quote(failpoints) + " ";
  cmd += shell_quote(opt.exe);
  cmd += " --corpus general --count " + std::to_string(opt.count);
  cmd += " --formats " + shell_quote(opt.formats);
  cmd += " --threads " + std::to_string(opt.threads);
  cmd += " --out " + shell_quote(out_prefix);
  if (!checkpoint.empty()) {
    cmd += " --checkpoint " + shell_quote(checkpoint);
    if (resume) cmd += " --resume";
  }
  if (!cache_dir.empty()) cmd += " --ref-cache " + shell_quote(cache_dir);
  cmd += " >> " + shell_quote(log) + " 2>&1";
  return cmd;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--exe")
      opt.exe = next();
    else if (arg == "--cycles")
      opt.cycles = static_cast<int>(parse_uint("--cycles", next(), 1000000));
    else if (arg == "--seed")
      opt.seed = parse_uint("--seed", next(), UINT64_MAX);
    else if (arg == "--workdir")
      opt.workdir = next();
    else if (arg == "--count")
      opt.count = static_cast<int>(parse_uint("--count", next(), 1000000));
    else if (arg == "--formats")
      opt.formats = next();
    else if (arg == "--threads")
      opt.threads = static_cast<int>(parse_uint("--threads", next(), 4096));
    else if (arg == "--keep")
      opt.keep = true;
    else
      usage();
  }
  if (opt.exe.empty() || opt.cycles < 1) usage();

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(opt.workdir, ec);
  fs::create_directories(opt.workdir, ec);
  if (!fs::is_directory(opt.workdir)) {
    std::fprintf(stderr, "crashtest: cannot create workdir '%s'\n", opt.workdir.c_str());
    return 1;
  }
  const std::string w = opt.workdir;

  // Uninterrupted baseline: same numerical config, no checkpoint, no cache.
  std::printf("crashtest: baseline run...\n");
  std::fflush(stdout);
  const std::string base_log = w + "/baseline.log";
  if (run(experiment_command(opt, w + "/base", "", false, "", "", base_log)) != 0) {
    std::fprintf(stderr, "crashtest: baseline run failed (see %s)\n", base_log.c_str());
    return 1;
  }
  std::string baseline_csv;
  if (!read_file(w + "/base_raw.csv", baseline_csv) || baseline_csv.empty()) {
    std::fprintf(stderr, "crashtest: baseline produced no CSV\n");
    return 1;
  }

  std::mt19937_64 rng(opt.seed);
  constexpr int kMaxKillRounds = 3;  // armed rounds per cycle before the clean finish
  int total_kills = 0, total_unfired = 0;

  for (int cycle = 1; cycle <= opt.cycles; ++cycle) {
    const std::string tag = w + "/cycle" + std::to_string(cycle);
    const std::string journal = tag + ".jsonl";
    const std::string cache = tag + ".cache";
    const std::string log = tag + ".log";

    bool completed = false;
    for (int round = 0; round <= kMaxKillRounds && !completed; ++round) {
      std::string failpoints;
      std::string desc = "clean";
      if (round < kMaxKillRounds) {
        const CrashPoint& cp =
            kCrashPoints[rng() % (sizeof kCrashPoints / sizeof kCrashPoints[0])];
        const int hit = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(cp.max_hit));
        failpoints = std::string(cp.name) + "=crash@" + std::to_string(hit);
        desc = failpoints;
      }
      const bool resume = round > 0;
      const int rc = run(
          experiment_command(opt, tag, journal, resume, cache, failpoints, log));
      if (rc == 0) {
        completed = true;
        if (!failpoints.empty()) ++total_unfired;  // armed point was never reached
      } else if (rc == kCrashExit && !failpoints.empty()) {
        ++total_kills;  // expected: the injected crash fired; resume next round
      } else {
        std::fprintf(stderr,
                     "crashtest: cycle %d round %d (%s) exited %d unexpectedly (see %s)\n",
                     cycle, round, desc.c_str(), rc, log.c_str());
        return 1;
      }
    }
    if (!completed) {
      std::fprintf(stderr, "crashtest: cycle %d never completed (see %s)\n", cycle,
                   log.c_str());
      return 1;
    }

    std::string cycle_csv;
    if (!read_file(tag + "_raw.csv", cycle_csv)) {
      std::fprintf(stderr, "crashtest: cycle %d produced no CSV\n", cycle);
      return 1;
    }
    if (cycle_csv != baseline_csv) {
      std::fprintf(stderr,
                   "crashtest: FAIL — cycle %d resumed CSV differs from the uninterrupted "
                   "baseline (%s_raw.csv vs %s/base_raw.csv)\n",
                   cycle, tag.c_str(), w.c_str());
      return 1;
    }
    std::printf("crashtest: cycle %d/%d ok (kills so far: %d)\n", cycle, opt.cycles,
                total_kills);
    std::fflush(stdout);
    if (!opt.keep) {
      fs::remove_all(cache, ec);
      fs::remove(journal, ec);
    }
  }

  std::printf(
      "crashtest: PASS — %d cycles, %d injected crashes survived (%d armed runs completed "
      "before their crash point), every resumed CSV byte-identical to the baseline\n",
      opt.cycles, total_kills, total_unfired);
  return 0;
}

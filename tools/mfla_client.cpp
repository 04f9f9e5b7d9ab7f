// mfla_client: thin client for the sweep-serving daemon (docs/SERVING.md).
//
// Submits one sweep spec to mfla_served, consumes the JSONL event stream,
// reconstructs the results, and writes the SAME raw CSV mfla_experiment
// would write for that spec — byte-identical, which the serve CI job
// verifies with cmp(1). Also speaks the stats request (--stats).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/errors.hpp"
#include "core/results_io.hpp"
#include "serve/client.hpp"

#include "cli_args.hpp"

namespace {

using namespace mfla;

// Exit codes mirror mfla_experiment where the classes overlap (0/2/3/4)
// and add the client-specific outcomes: 5 rejected by admission control,
// 6 sweep canceled server-side, 7 aborted via --abort-after-events.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitServer = 4;
constexpr int kExitRejected = 5;
constexpr int kExitCanceled = 6;
constexpr int kExitAborted = 7;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mfla_client --socket PATH [--stats] [--tenant NAME] [--corpus NAME]\n"
               "       [--count N] [--nev K] [--buffer B] [--restarts R] [--formats keys]\n"
               "       [--which W] [--seed S] [--ref-tier TIER] [--no-resume]\n"
               "       [--out prefix] [--timeout-ms N] [--abort-after-events N] [--help]\n");
}

[[noreturn]] void print_help() {
  print_usage(stdout);
  const serve::SweepRequest defaults;
  std::printf(
      "\nSubmit one sweep to a running mfla_served and write the raw results\n"
      "CSV — byte-identical to mfla_experiment's for the same spec.\n"
      "\noptions:\n"
      "  --socket PATH       daemon socket (required)\n"
      "  --stats             print the daemon's stats line and exit\n"
      "  --tenant NAME       admission-control tenant (default \"default\")\n"
      "  --corpus NAME       general|biological|infrastructure|social|miscellaneous\n"
      "  --count N           matrices per corpus class (default %zu)\n"
      "  --nev K / --buffer B / --restarts R / --formats keys / --seed S\n"
      "                      sweep spec, defaults matching mfla_experiment\n"
      "  --which W           largest_magnitude | smallest_magnitude |\n"
      "                      largest_real | smallest_real (default %s)\n"
      "  --ref-tier TIER     f128_only | dd_first (default %s)\n"
      "  --no-resume         ignore the server-side journal of a prior retry\n"
      "  --out prefix        CSV output prefix (default out/served)\n"
      "  --timeout-ms N      socket timeout (default 600000)\n"
      "  --abort-after-events N\n"
      "                      test hook: close the connection after N events\n"
      "  --help, -h          this help\n"
      "\nexit codes: 0 ok, 2 usage, 3 connection/stream failure, 4 sweep failed\n"
      "server-side, 5 rejected (overloaded/quota/draining), 6 canceled, 7\n"
      "aborted via --abort-after-events\n",
      defaults.count, defaults.which.c_str(), defaults.ref_tier.c_str());
  std::exit(0);
}

std::uint64_t parse_uint(const char* option, const std::string& value, std::uint64_t max) {
  return cli::parse_uint(option, value, max, print_usage, kExitUsage);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ClientOptions copts;
  serve::SweepRequest req;
  std::string out_prefix = "out/served";
  bool stats_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        print_usage(stderr);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      copts.socket_path = next();
    } else if (arg == "--stats") {
      stats_only = true;
    } else if (arg == "--tenant") {
      req.tenant = next();
    } else if (arg == "--corpus") {
      req.corpus = next();
    } else if (arg == "--count") {
      req.count = static_cast<std::size_t>(parse_uint("--count", next(), kMaxCorpusCount));
    } else if (arg == "--nev") {
      req.nev = static_cast<std::size_t>(parse_uint("--nev", next(), kMaxEigenpairs));
    } else if (arg == "--buffer") {
      req.buffer = static_cast<std::size_t>(parse_uint("--buffer", next(), kMaxEigenpairs));
    } else if (arg == "--restarts") {
      req.restarts = static_cast<int>(parse_uint("--restarts", next(), kMaxRestarts));
    } else if (arg == "--formats") {
      req.formats = next();
    } else if (arg == "--which") {
      req.which = next();
    } else if (arg == "--seed") {
      req.seed = parse_uint("--seed", next(), UINT64_MAX);
    } else if (arg == "--ref-tier") {
      req.ref_tier = next();
    } else if (arg == "--no-resume") {
      req.resume = false;
    } else if (arg == "--out") {
      out_prefix = next();
    } else if (arg == "--timeout-ms") {
      copts.io_timeout_ms = static_cast<int>(parse_uint("--timeout-ms", next(), 86400000));
    } else if (arg == "--abort-after-events") {
      copts.abort_after_events =
          static_cast<std::size_t>(parse_uint("--abort-after-events", next(), UINT32_MAX));
    } else if (arg == "--help" || arg == "-h") {
      print_help();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return kExitUsage;
    }
  }
  if (copts.socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    print_usage(stderr);
    return kExitUsage;
  }

  try {
    if (stats_only) {
      std::printf("%s\n", serve::fetch_stats(copts).c_str());
      return kExitOk;
    }

    const serve::ClientResult r = serve::run_sweep(copts, req);
    switch (r.status) {
      case serve::ClientResult::Status::ok: {
        const std::string csv = out_prefix + "_raw.csv";
        write_results_csv(csv, r.results);
        std::printf("sweep %s: %zu matrices, %zu runs executed + %zu replayed "
                    "(server wall %.1fs)\n",
                    r.sweep_id.c_str(), r.results.size(), r.executed, r.replayed,
                    r.elapsed_seconds);
        std::printf("results written to %s\n", csv.c_str());
        return kExitOk;
      }
      case serve::ClientResult::Status::rejected:
        std::fprintf(stderr, "rejected (%s): %s\n", r.reject_reason.c_str(), r.error.c_str());
        return kExitRejected;
      case serve::ClientResult::Status::canceled:
        std::fprintf(stderr, "sweep %s canceled server-side (drain or dead stream); "
                             "retry to resume from its journal\n",
                     r.sweep_id.c_str());
        return kExitCanceled;
      case serve::ClientResult::Status::error:
        std::fprintf(stderr, "sweep failed server-side: %s\n", r.error.c_str());
        return kExitServer;
      case serve::ClientResult::Status::aborted:
        std::fprintf(stderr, "%s\n", r.error.c_str());
        return kExitAborted;
      case serve::ClientResult::Status::protocol_error:
        std::fprintf(stderr, "protocol error: %s\n", r.error.c_str());
        return kExitIo;
      case serve::ClientResult::Status::io_error:
        std::fprintf(stderr, "connection failed: %s\n", r.error.c_str());
        return kExitIo;
    }
    return kExitIo;
  } catch (const IoError& e) {
    std::fprintf(stderr, "mfla_client: %s\n", e.what());
    return kExitIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mfla_client: %s\n", e.what());
    return kExitServer;
  }
}

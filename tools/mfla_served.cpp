// mfla_served: the sweep-serving daemon (docs/SERVING.md).
//
// Listens on a Unix-domain socket, runs sweep requests from many tenants
// concurrently over one shared thread pool and one shared reference
// cache, and streams each sweep's results back as JSONL. Admission
// control (--max-active/--max-queued/--max-per-tenant) bounds the load;
// anything beyond it is rejected explicitly, never hung.
//
// Shutdown: the first SIGTERM/SIGINT drains — the listener closes, queued
// requests are rejected, in-flight sweeps finish and their journals
// flush, then the process exits 0. A second signal cancels the in-flight
// sweeps too (they stop at the next task boundary; their journals make a
// retried request resume where they stopped).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/errors.hpp"
#include "serve/server.hpp"

#include "cli_args.hpp"

namespace {

using namespace mfla;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

// Signal handlers only bump a counter (async-signal-safe); the watcher
// thread translates counts into drain/cancel calls, which take locks.
std::atomic<int> g_signals{0};

extern "C" void handle_signal(int) { g_signals.fetch_add(1, std::memory_order_relaxed); }

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mfla_served --socket PATH --state-dir DIR [--threads N]\n"
               "       [--max-active N] [--max-queued N] [--max-per-tenant N]\n"
               "       [--io-timeout-ms N] [--help]\n");
}

[[noreturn]] void print_help() {
  print_usage(stdout);
  std::printf(
      "\nServe mfla sweeps over a Unix-domain socket (protocol: one JSONL\n"
      "request line in, a JSONL event stream out; see docs/SERVING.md).\n"
      "\noptions:\n"
      "  --socket PATH       socket to listen on (replaces a stale file)\n"
      "  --state-dir DIR     daemon state root: shared reference cache at\n"
      "                      DIR/refcache, per-sweep checkpoint journals\n"
      "                      under DIR/sweeps/<id>/\n"
      "  --threads N         shared worker pool size; 0 = all cores (default 0)\n"
      "  --max-active N      sweeps executing concurrently (default 2)\n"
      "  --max-queued N      admission queue depth beyond that (default 8)\n"
      "  --max-per-tenant N  one tenant's share of active+queued (default 4)\n"
      "  --io-timeout-ms N   per-connection socket timeout (default 30000)\n"
      "  --help, -h          this help\n"
      "\nSIGTERM/SIGINT drains (in-flight sweeps finish, journals flush,\n"
      "exit 0); a second signal cancels in-flight sweeps at the next task\n"
      "boundary (their journals keep them resumable).\n");
  std::exit(0);
}

std::uint64_t parse_uint(const char* option, const std::string& value, std::uint64_t max) {
  return cli::parse_uint(option, value, max, print_usage, kExitUsage);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opts;
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
      opts.socket_path = next();
    } else if (arg == "--state-dir") {
      opts.state_dir = next();
    } else if (arg == "--threads") {
      opts.threads = static_cast<std::size_t>(parse_uint("--threads", next(), 4096));
    } else if (arg == "--max-active") {
      opts.limits.max_active = static_cast<std::size_t>(parse_uint("--max-active", next(), 4096));
    } else if (arg == "--max-queued") {
      opts.limits.max_queued = static_cast<std::size_t>(parse_uint("--max-queued", next(), 65536));
    } else if (arg == "--max-per-tenant") {
      opts.limits.max_per_tenant =
          static_cast<std::size_t>(parse_uint("--max-per-tenant", next(), 65536));
    } else if (arg == "--io-timeout-ms") {
      opts.io_timeout_ms = static_cast<int>(parse_uint("--io-timeout-ms", next(), 86400000));
    } else if (arg == "--help" || arg == "-h") {
      print_help();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return kExitUsage;
    }
  }
  if (opts.socket_path.empty() || opts.state_dir.empty()) {
    std::fprintf(stderr, "--socket and --state-dir are required\n");
    print_usage(stderr);
    return kExitUsage;
  }
  if (opts.limits.max_active == 0 || opts.limits.max_per_tenant == 0) {
    std::fprintf(stderr, "--max-active and --max-per-tenant must be positive\n");
    print_usage(stderr);
    return kExitUsage;
  }

  try {
    serve::Server server(opts);

    struct sigaction sa{};
    sa.sa_handler = handle_signal;
    sigemptyset(&sa.sa_mask);
    (void)sigaction(SIGTERM, &sa, nullptr);
    (void)sigaction(SIGINT, &sa, nullptr);

    std::fprintf(stderr, "mfla_served: listening on %s (state %s, %zu active / %zu queued)\n",
                 opts.socket_path.c_str(), opts.state_dir.c_str(), opts.limits.max_active,
                 opts.limits.max_queued);

    std::atomic<bool> done{false};
    std::thread watcher([&] {
      int acted = 0;
      while (!done.load(std::memory_order_acquire)) {
        const int n = g_signals.load(std::memory_order_relaxed);
        if (n >= 2 && acted < 2) {
          std::fprintf(stderr, "mfla_served: second signal — canceling in-flight sweeps\n");
          server.request_cancel();
          acted = 2;
        } else if (n >= 1 && acted < 1) {
          std::fprintf(stderr, "mfla_served: draining (in-flight sweeps finish; signal again "
                               "to cancel them)\n");
          server.request_drain();
          acted = 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });

    server.serve();
    done.store(true, std::memory_order_release);
    watcher.join();

    const serve::ServerStats s = server.stats_snapshot();
    std::fprintf(stderr,
                 "mfla_served: drained — %llu connections, %llu sweeps ok, %llu canceled, "
                 "%llu failed, %llu rejected\n",
                 static_cast<unsigned long long>(s.connections),
                 static_cast<unsigned long long>(s.sweeps_ok),
                 static_cast<unsigned long long>(s.sweeps_canceled),
                 static_cast<unsigned long long>(s.sweeps_failed),
                 static_cast<unsigned long long>(s.admission.rejected_overloaded +
                                                 s.admission.rejected_tenant +
                                                 s.admission.rejected_shutdown));
    return kExitOk;
  } catch (const IoError& e) {
    std::fprintf(stderr, "mfla_served: %s\n", e.what());
    return kExitIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mfla_served: %s\n", e.what());
    return kExitIo;
  }
}

// Serving-layer tests (docs/SERVING.md): protocol round-trips (valid,
// malformed, oversized), scheduler admission control, and an in-process
// daemon driven through real Unix-domain sockets — concurrent tenants
// with interleaved-but-internally-ordered streams, client-reconstructed
// CSVs byte-compared against the direct api::Sweep path, a client dying
// mid-stream plus journal-resumed retry, explicit over-capacity
// rejections, and a graceful drain that leaves no state behind.
//
// The daemon tests of one process share one state root so the server-side
// reference cache warms once; results are bit-identical either way, which
// is the point of the byte-compare assertions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "support/failpoint.hpp"

namespace mfla {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

serve::SweepRequest small_request(const std::string& tenant) {
  serve::SweepRequest req;
  req.tenant = tenant;
  req.corpus = "general";
  req.count = 2;
  req.formats = "f16,p16,t16";
  req.nev = 4;
  req.buffer = 2;
  req.restarts = 40;
  return req;
}

TEST(ServeProtocol, RequestSerializationRoundTrips) {
  serve::SweepRequest req = small_request("ci");
  req.seed = 12345;
  req.which = "smallest_magnitude";
  req.ref_tier = "dd_first";
  req.resume = false;

  serve::Request parsed;
  std::string err;
  ASSERT_TRUE(serve::parse_request(serve::serialize_request(req), parsed, err)) << err;
  ASSERT_EQ(parsed.kind, serve::Request::Kind::sweep);
  EXPECT_EQ(parsed.sweep.tenant, "ci");
  EXPECT_EQ(parsed.sweep.corpus, "general");
  EXPECT_EQ(parsed.sweep.count, 2u);
  EXPECT_EQ(parsed.sweep.formats, "f16,p16,t16");
  EXPECT_EQ(parsed.sweep.nev, 4u);
  EXPECT_EQ(parsed.sweep.buffer, 2u);
  EXPECT_EQ(parsed.sweep.restarts, 40);
  EXPECT_EQ(parsed.sweep.seed, 12345u);
  EXPECT_EQ(parsed.sweep.which, "smallest_magnitude");
  EXPECT_EQ(parsed.sweep.ref_tier, "dd_first");
  EXPECT_FALSE(parsed.sweep.resume);

  ASSERT_TRUE(serve::parse_request(serve::serialize_stats_request(), parsed, err)) << err;
  EXPECT_EQ(parsed.kind, serve::Request::Kind::stats);
}

// The daemon's defaults are the library's: an empty request describes the
// sweep ExperimentConfig{} runs over evaluation_formats(), at the count
// mfla_experiment runs with no --count.
TEST(ServeProtocol, DefaultRequestIsTheLibraryDefaultSweep) {
  const serve::SweepRequest req;
  EXPECT_EQ(req.count, kDefaultCorpusCount);
  EXPECT_EQ(make_journal_meta(serve::experiment_config(req), parse_format_keys(req.formats),
                              req.count),
            make_journal_meta(ExperimentConfig{}, api::evaluation_formats(), kDefaultCorpusCount));

  serve::Request parsed;
  std::string err;
  ASSERT_TRUE(serve::parse_request(R"({"type":"sweep"})", parsed, err)) << err;
  EXPECT_EQ(serve::sweep_id(parsed.sweep), serve::sweep_id(req));

  for (const Which w : {Which::largest_magnitude, Which::smallest_magnitude, Which::largest_real,
                        Which::smallest_real})
    EXPECT_EQ(serve::which_from_name(serve::which_name(w)), w);
  EXPECT_THROW((void)serve::which_from_name("largest"), std::invalid_argument);
}

TEST(ServeProtocol, MalformedRequestsAreRejectedWithAMessage) {
  serve::Request parsed;
  std::string err;
  EXPECT_FALSE(serve::parse_request("not json at all", parsed, err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(serve::parse_request("{\"no_type\":1}", parsed, err));
  EXPECT_FALSE(serve::parse_request("{\"type\":\"launch_missiles\"}", parsed, err));
  // Bad numbers in known fields are malformed, not silently defaulted.
  EXPECT_FALSE(serve::parse_request("{\"type\":\"sweep\",\"count\":\"elephant\"}", parsed, err));
  // An empty tenant would poison the admission bookkeeping.
  EXPECT_FALSE(serve::parse_request("{\"type\":\"sweep\",\"tenant\":\"\"}", parsed, err));
  // Size fields past the CLI's bounds would let one request allocate
  // without limit; none may wrap or truncate into range either.
  for (const char* field : {"\"count\":1000000000000", "\"count\":1000001",
                            "\"nev\":18446744073709551615", "\"nev\":10001",
                            "\"buffer\":10001", "\"restarts\":4294967297",
                            "\"restarts\":1000001", "\"nev\":-1"}) {
    err.clear();
    EXPECT_FALSE(serve::parse_request(std::string("{\"type\":\"sweep\",") + field + "}",
                                      parsed, err))
        << field;
    EXPECT_NE(err.find("exceeds"), std::string::npos) << field << ": " << err;
  }
  // The bounds themselves are accepted.
  EXPECT_TRUE(serve::parse_request(
      "{\"type\":\"sweep\",\"count\":1000000,\"nev\":10000,\"buffer\":10000,"
      "\"restarts\":1000000}",
      parsed, err))
      << err;
  EXPECT_EQ(parsed.sweep.restarts, 1000000);
  // Unknown KEYS are forward-compatible and ignored.
  EXPECT_TRUE(
      serve::parse_request("{\"type\":\"sweep\",\"future_knob\":\"on\"}", parsed, err))
      << err;
}

TEST(ServeProtocol, SweepIdHashesEveryResultAffectingField) {
  const serve::SweepRequest base = small_request("a");
  EXPECT_EQ(serve::sweep_id(base), serve::sweep_id(base));
  EXPECT_EQ(serve::sweep_id(base).size(), 32u);

  serve::SweepRequest other = base;
  other.tenant = "b";
  EXPECT_NE(serve::sweep_id(base), serve::sweep_id(other));
  other = base;
  other.seed ^= 1;
  EXPECT_NE(serve::sweep_id(base), serve::sweep_id(other));
  other = base;
  other.formats = "f16,p16";
  EXPECT_NE(serve::sweep_id(base), serve::sweep_id(other));
  // resume is a retry knob, not an identity field: the retried request must
  // land in the same journal namespace.
  other = base;
  other.resume = !base.resume;
  EXPECT_EQ(serve::sweep_id(base), serve::sweep_id(other));
}

TEST(ServeProtocol, RunEventsRoundTripDoublesExactly) {
  FormatRun run;
  run.format = FormatId::takum16;
  run.outcome = RunOutcome::ok;
  run.eigenvalue_error = {1.0 / 3.0, 6.02214076e23};
  run.eigenvector_error = {std::numeric_limits<double>::infinity(), 1e-308};
  run.mean_similarity = 0.12345678901234567;
  run.nconverged = 6;
  run.restarts = 17;
  run.matvecs = 421;
  run.duration_seconds = 0.25;
  run.failure = "needs \"quoting\"\n\tand control bytes";

  serve::Event ev;
  ASSERT_TRUE(serve::parse_event(serve::run_line("mat_a", 50, 400, run, true), ev));
  EXPECT_EQ(ev.type, "run");
  EXPECT_EQ(ev.fields.at("matrix"), "mat_a");
  EXPECT_EQ(ev.fields.at("replayed"), "1");
  const FormatRun back = run_from_record(ev.fields).run;
  EXPECT_EQ(back.format, run.format);
  EXPECT_EQ(back.outcome, run.outcome);
  EXPECT_EQ(back.eigenvalue_error.absolute, run.eigenvalue_error.absolute);
  EXPECT_EQ(back.eigenvalue_error.relative, run.eigenvalue_error.relative);
  EXPECT_EQ(back.eigenvector_error.absolute, run.eigenvector_error.absolute);
  EXPECT_EQ(back.eigenvector_error.relative, run.eigenvector_error.relative);
  EXPECT_EQ(back.mean_similarity, run.mean_similarity);
  EXPECT_EQ(back.nconverged, run.nconverged);
  EXPECT_EQ(back.restarts, run.restarts);
  EXPECT_EQ(back.matvecs, run.matvecs);
  EXPECT_EQ(back.duration_seconds, run.duration_seconds);
  EXPECT_EQ(back.failure, run.failure);
}

// The round-trip tests above would pass under any field order or number
// spelling; these strings pin the bytes of the journal records and of the
// protocol lines that share their fields, so a change to either shows.
TEST(RecordCodec, JournalAndProtocolLinesMatchGoldenBytes) {
  ExperimentConfig cfg;
  cfg.nev = 6;
  cfg.buffer = 2;
  cfg.which = Which::smallest_real;
  cfg.max_restarts = 40;
  cfg.reference_max_restarts = 120;
  cfg.seed = 18446744073709551615ull;
  cfg.reference_tier = ReferenceTier::dd_first;
  const std::vector<FormatId> formats = {FormatId::takum16, FormatId::ofp8_e4m3};

  FormatRun run;
  run.format = FormatId::takum16;
  run.outcome = RunOutcome::fault;
  run.eigenvalue_error = {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::denorm_min()};
  run.eigenvector_error = {0.1, -std::numeric_limits<double>::infinity()};
  run.mean_similarity = 1.0 / 3.0;
  run.nconverged = 7;
  run.restarts = -1;
  run.matvecs = 123456789012345ull;
  run.duration_seconds = 2.5e-7;
  run.failure = "solve \"aborted\": a\\b\n\tc\x01";

  const std::string meta =
      "{\"type\":\"meta\",\"version\":1,\"nev\":6,\"buffer\":2,\"which\":3,\"restarts\":40,"
      "\"ref_restarts\":120,\"seed\":18446744073709551615,\"ref_tier\":1,"
      "\"formats\":\"takum16,OFP8 E4M3\",\"matrices\":3";
  const std::string run_fields =
      "{\"type\":\"run\",\"matrix\":\"mat \\\"q\\\"\",\"n\":50,\"nnz\":400,"
      "\"format\":\"takum16\",\"outcome\":\"fault\",\"eig_abs\":Infinity,"
      "\"eig_rel\":4.9406564584124654e-324,\"vec_abs\":0.10000000000000001,"
      "\"vec_rel\":-Infinity,\"similarity\":0.33333333333333331,\"nconv\":7,"
      "\"restarts\":-1,\"matvecs\":123456789012345,\"duration\":2.4999999999999999e-07,"
      "\"failure\":\"solve \\\"aborted\\\": a\\\\b\\n\\tc\\u0001\"";
  const std::string reference_fields =
      "{\"type\":\"reference\",\"matrix\":\"mat \\\"q\\\"\",\"n\":50,\"nnz\":400,"
      "\"failure\":\"reference did not converge\"";

  const std::string path = "test_out/record_golden." + std::to_string(::getpid()) + ".jsonl";
  {
    JournalWriter w(path, /*truncate=*/true);
    w.write_meta(make_journal_meta(cfg, formats, 3));
    w.write_run("mat \"q\"", 50, 400, run);
    w.write_reference_failure("mat \"q\"", 50, 400, "reference did not converge");
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  std::filesystem::remove(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], meta + "}");
  EXPECT_EQ(lines[1], run_fields + "}");
  EXPECT_EQ(lines[2], reference_fields + "}");

  api::SweepMeta sm;
  sm.config = cfg;
  sm.formats = formats;
  sm.matrix_count = 3;
  sm.total_runs = 6;
  EXPECT_EQ(serve::meta_line(sm), meta + ",\"total_runs\":6}");
  EXPECT_EQ(serve::run_line("mat \"q\"", 50, 400, run, false), run_fields + "}");
  EXPECT_EQ(serve::run_line("mat \"q\"", 50, 400, run, true), run_fields + ",\"replayed\":1}");
  EXPECT_EQ(serve::reference_line("mat \"q\"", 50, 400, "reference did not converge", true),
            reference_fields + ",\"replayed\":1}");

  // One strict decoder for both surfaces: a run record without `failure`
  // is malformed (a skipped journal line, a protocol error), never a run
  // with an empty failure.
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(jsonl::parse_line(run_fields + "}", fields));
  EXPECT_EQ(run_from_record(fields).run.failure, run.failure);
  fields.erase("failure");
  EXPECT_THROW((void)run_from_record(fields), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(ServeScheduler, RejectsBeyondCapacityAndEnforcesTenantShare) {
  serve::Scheduler sched({/*max_active=*/1, /*max_queued=*/0, /*max_per_tenant=*/1});
  serve::Scheduler::Slot a;
  ASSERT_EQ(sched.acquire("alice", a), serve::Admission::admitted);
  // alice is at her share; bob hits the global bound (no queue).
  serve::Scheduler::Slot dummy;
  EXPECT_EQ(sched.acquire("alice", dummy), serve::Admission::tenant_quota);
  EXPECT_EQ(sched.acquire("bob", dummy), serve::Admission::overloaded);
  a.release();
  EXPECT_EQ(sched.acquire("bob", dummy), serve::Admission::admitted);
  const serve::SchedulerStats s = sched.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.rejected_tenant, 1u);
  EXPECT_EQ(s.rejected_overloaded, 1u);
}

TEST(ServeScheduler, QueuedTicketsRunInFifoOrderAndShutdownRejectsThem) {
  serve::Scheduler sched({/*max_active=*/1, /*max_queued=*/4, /*max_per_tenant=*/4});
  serve::Scheduler::Slot first;
  ASSERT_EQ(sched.acquire("t", first), serve::Admission::admitted);

  std::vector<int> order;
  std::mutex order_mtx;
  std::atomic<int> queued{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      queued.fetch_add(1);
      serve::Scheduler::Slot slot;
      const serve::Admission adm = sched.acquire("t", slot);
      std::lock_guard<std::mutex> lk(order_mtx);
      order.push_back(adm == serve::Admission::admitted ? i : -1);
    });
    // Stagger starts so queue order is deterministic.
    while (queued.load() <= i) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  // Release the head twice: tickets 0 and 1 should be admitted in order.
  first.release();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Ticket 0 got the slot and still holds it inside its thread's Slot...
  // which released it at scope end, so ticket 1 follows. Shut down before 2
  // can be sure of a slot — but 0 and 1 may both have finished; allow that
  // and only require FIFO among the admitted prefix.
  sched.begin_shutdown();
  for (auto& w : waiters) w.join();
  ASSERT_EQ(order.size(), 3u);
  std::vector<int> admitted;
  for (const int v : order)
    if (v >= 0) admitted.push_back(v);
  for (std::size_t i = 1; i < admitted.size(); ++i) EXPECT_LT(admitted[i - 1], admitted[i]);
  serve::Scheduler::Slot dummy;
  EXPECT_EQ(sched.acquire("t", dummy), serve::Admission::shutting_down);
}

// ---------------------------------------------------------------------------
// Daemon end-to-end (in-process server, real sockets)
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A path under test_out/ private to this process. ctest runs every test
/// of this binary as its own process, in parallel, so a fixed path would
/// be written, read and removed by several processes at once.
std::string process_path(const std::string& name) {
  return "test_out/" + name + "." + std::to_string(::getpid());
}

/// Shared state root: the server-side reference cache warms on the first
/// daemon sweep and every later test of the same process serves
/// references from it. Created once per process, removed after its last
/// test.
const std::string& state_root() {
  static const std::string root = [] {
    const std::string dir = process_path("serve_state");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }();
  return root;
}

class StateRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(process_path("serve_state"), ec);
  }
};
[[maybe_unused]] ::testing::Environment* const kStateRootCleanup =
    ::testing::AddGlobalTestEnvironment(new StateRootCleanup);

/// In-process daemon running its accept loop on a background thread.
struct DaemonFixture {
  explicit DaemonFixture(const std::string& tag, serve::SchedulerLimits limits = {}) {
    serve::ServerOptions opts;
    opts.socket_path = "test_out/" + tag + ".sock";
    opts.state_dir = state_root();
    opts.threads = 4;
    opts.limits = limits;
    opts.io_timeout_ms = 60000;
    opts.accept_poll_ms = 20;
    server = std::make_unique<serve::Server>(opts);
    loop = std::thread([this] { server->serve(); });
  }
  ~DaemonFixture() { stop(); }

  void stop() {
    if (!loop.joinable()) return;
    server->request_drain();
    loop.join();
  }

  [[nodiscard]] serve::ClientOptions client() const {
    serve::ClientOptions copts;
    copts.socket_path = server->options().socket_path;
    return copts;
  }

  std::unique_ptr<serve::Server> server;
  std::thread loop;
};

/// The expected artifacts for small_request(), computed once via the
/// direct api::Sweep path — the daemon must reproduce this byte stream.
struct Expected {
  std::vector<std::string> matrix_order;
  std::string csv;
};
const Expected& expected_small_sweep() {
  static const Expected e = [] {
    GeneralCorpusOptions copts;
    copts.count = 2;
    std::vector<TestMatrix> dataset = build_general_corpus(copts);
    Expected out;
    for (const auto& tm : dataset) out.matrix_order.push_back(tm.name);
    const api::SweepResult r = api::Sweep::over(std::move(dataset))
                                   .formats("f16,p16,t16")
                                   .nev(4)
                                   .buffer(2)
                                   .restarts(40)
                                   .run();
    const std::string path = process_path("serve_expected_raw.csv");
    write_results_csv(path, r.results);
    out.csv = slurp(path);
    std::filesystem::remove(path);
    return out;
  }();
  return e;
}

/// Retry an identical request like a real client would: the previous
/// attempt's connection may have died client-side while the server is
/// still finishing (and journaling) the canceled sweep, during which an
/// identical spec is rejected as "duplicate" to protect its journal.
serve::ClientResult retry_sweep(const serve::ClientOptions& opts,
                                const serve::SweepRequest& req) {
  serve::ClientResult r;
  for (int attempt = 0; attempt < 200; ++attempt) {
    r = serve::run_sweep(opts, req);
    if (r.status != serve::ClientResult::Status::rejected || r.reject_reason != "duplicate")
      return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return r;
}

std::string client_csv(const serve::ClientResult& r, const std::string& tag) {
  const std::string path = process_path("serve_" + tag + "_raw.csv");
  write_results_csv(path, r.results);
  std::string data = slurp(path);
  std::filesystem::remove(path);
  return data;
}

TEST(ServeDaemon, SingleSweepReconstructsByteIdenticalCsv) {
  DaemonFixture daemon("serve_single");
  const serve::ClientResult r = serve::run_sweep(daemon.client(), small_request("solo"));
  ASSERT_EQ(r.status, serve::ClientResult::Status::ok) << r.error;
  EXPECT_FALSE(r.sweep_id.empty());
  ASSERT_EQ(r.results.size(), 2u);
  // Dataset order survives the wire (matrix announcements are ordered).
  for (std::size_t i = 0; i < r.results.size(); ++i)
    EXPECT_EQ(r.results[i].name, expected_small_sweep().matrix_order[i]);
  EXPECT_EQ(client_csv(r, "single"), expected_small_sweep().csv);

  // The stats endpoint counts what just happened.
  serve::Event ev;
  ASSERT_TRUE(serve::parse_event(serve::fetch_stats(daemon.client()), ev));
  EXPECT_EQ(ev.type, "stats");
  EXPECT_EQ(ev.fields.at("sweeps_ok"), "1");
  daemon.stop();
}

TEST(ServeDaemon, MalformedAndOversizedRequestsDoNotKillTheDaemon) {
  DaemonFixture daemon("serve_malformed");
  const std::string socket = daemon.server->options().socket_path;

  {  // Garbage line -> one rejected line, connection survives to read it.
    serve::Fd fd = serve::connect_unix(socket);
    std::string err;
    ASSERT_TRUE(serve::send_line(fd.get(), "this is not a request", err)) << err;
    serve::LineReader reader(fd.get(), serve::kMaxEventBytes);
    std::string line;
    ASSERT_EQ(reader.read_line(line, err), serve::LineReader::Status::ok) << err;
    serve::Event ev;
    ASSERT_TRUE(serve::parse_event(line, ev));
    EXPECT_EQ(ev.type, "rejected");
    EXPECT_EQ(ev.fields.at("reason"), "bad_request");
  }
  {  // A request over the size bound is rejected without unbounded buffering.
    serve::Fd fd = serve::connect_unix(socket);
    std::string err;
    std::string huge = "{\"type\":\"sweep\",\"tenant\":\"";
    huge.append(serve::kMaxRequestBytes + 1024, 'x');
    huge += "\"}";
    ASSERT_TRUE(serve::send_line(fd.get(), huge, err)) << err;
    serve::LineReader reader(fd.get(), serve::kMaxEventBytes);
    std::string line;
    ASSERT_EQ(reader.read_line(line, err), serve::LineReader::Status::ok) << err;
    serve::Event ev;
    ASSERT_TRUE(serve::parse_event(line, ev));
    EXPECT_EQ(ev.type, "rejected");
  }
  {  // Unknown corpus / bad formats are rejected before admission.
    serve::SweepRequest bad = small_request("m");
    bad.corpus = "imaginary";
    const serve::ClientResult r = serve::run_sweep(daemon.client(), bad);
    ASSERT_EQ(r.status, serve::ClientResult::Status::rejected);
    EXPECT_EQ(r.reject_reason, "bad_request");
  }

  // After all that abuse, the daemon still serves a real sweep.
  const serve::ClientResult r = serve::run_sweep(daemon.client(), small_request("m"));
  ASSERT_EQ(r.status, serve::ClientResult::Status::ok) << r.error;
  EXPECT_EQ(client_csv(r, "after_abuse"), expected_small_sweep().csv);
  daemon.stop();
}

TEST(ServeDaemon, FourConcurrentTenantsGetInternallyOrderedByteIdenticalStreams) {
  serve::SchedulerLimits limits;
  limits.max_active = 4;
  limits.max_queued = 4;
  limits.max_per_tenant = 2;
  DaemonFixture daemon("serve_concurrent", limits);

  constexpr int kClients = 4;
  std::vector<serve::ClientResult> results(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      results[i] =
          serve::run_sweep(daemon.client(), small_request("tenant" + std::to_string(i)));
    });
  }
  for (auto& c : clients) c.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(results[i].status, serve::ClientResult::Status::ok)
        << "client " << i << ": " << results[i].error;
    // run_sweep enforces per-stream internal ordering (matrix announced
    // before its runs, every slot filled before done); on top of that,
    // every tenant's bytes must match the batch CLI path exactly.
    EXPECT_EQ(client_csv(results[i], "tenant" + std::to_string(i)),
              expected_small_sweep().csv)
        << "client " << i;
  }
  daemon.stop();
}

TEST(ServeDaemon, DeadClientCancelsSweepAndRetryResumesItsJournal) {
  DaemonFixture daemon("serve_deadclient");

  serve::ClientOptions abort_opts = daemon.client();
  abort_opts.abort_after_events = 3;  // die right after accepted+meta+matrix
  const serve::ClientResult dead = serve::run_sweep(abort_opts, small_request("mayfly"));
  EXPECT_EQ(dead.status, serve::ClientResult::Status::aborted);

  // The daemon notices the dead stream (write failure -> cancel), keeps the
  // journal, and a retried identical request resumes it — completing with
  // some mix of replayed and freshly executed runs, byte-identical output.
  const serve::ClientResult retry = retry_sweep(daemon.client(), small_request("mayfly"));
  ASSERT_EQ(retry.status, serve::ClientResult::Status::ok) << retry.error;
  EXPECT_EQ(client_csv(retry, "retry"), expected_small_sweep().csv);
  daemon.stop();
}

TEST(ServeDaemon, OverCapacityRequestsAreRejectedExplicitly) {
  serve::SchedulerLimits limits;
  limits.max_active = 1;
  limits.max_queued = 0;
  limits.max_per_tenant = 1;
  DaemonFixture daemon("serve_capacity", limits);

  // Hold the first sweep's slot deterministically: its first format run
  // sleeps at the engine failpoint while the connection thread waits.
  failpoint::Config delay;
  delay.action = failpoint::Action::delay;
  delay.delay_ms = 1500;
  delay.fire_count = 1;
  failpoint::ScopedFailpoint hold("engine.format_run", delay);

  std::atomic<bool> holder_done{false};
  serve::ClientResult holder;
  std::thread holder_thread([&] {
    holder = serve::run_sweep(daemon.client(), small_request("greedy"));
    holder_done.store(true);
  });
  // Give the holder time to be admitted and reach the delay.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_FALSE(holder_done.load());

  // A *different* spec from the same tenant (identical specs are caught
  // earlier, by the duplicate-sweep guard).
  serve::SweepRequest second = small_request("greedy");
  second.seed ^= 1;
  const serve::ClientResult same_tenant = serve::run_sweep(daemon.client(), second);
  ASSERT_EQ(same_tenant.status, serve::ClientResult::Status::rejected);
  EXPECT_EQ(same_tenant.reject_reason, "tenant_quota");

  serve::SweepRequest other = small_request("modest");
  const serve::ClientResult other_tenant = serve::run_sweep(daemon.client(), other);
  ASSERT_EQ(other_tenant.status, serve::ClientResult::Status::rejected);
  EXPECT_EQ(other_tenant.reject_reason, "overloaded");

  holder_thread.join();
  ASSERT_EQ(holder.status, serve::ClientResult::Status::ok) << holder.error;
  EXPECT_EQ(client_csv(holder, "holder"), expected_small_sweep().csv);
  daemon.stop();

  const serve::ServerStats s = daemon.server->stats_snapshot();
  EXPECT_GE(s.admission.rejected_tenant, 1u);
  EXPECT_GE(s.admission.rejected_overloaded, 1u);
}

TEST(ServeDaemon, MidStreamWriteFailureCancelsThatSweepOnly) {
  DaemonFixture daemon("serve_writefail");

  {
    // Hits 1-5: client request, accepted, meta, two matrix lines. Hit 6 —
    // the first streamed result — fails once; the daemon cancels that
    // sweep and stays up.
    failpoint::Config cfg;
    cfg.action = failpoint::Action::error;
    cfg.error_code = EPIPE;
    cfg.from_hit = 6;
    cfg.fire_count = 1;
    failpoint::ScopedFailpoint drop("serve.write", cfg);
    const serve::ClientResult r = serve::run_sweep(daemon.client(), small_request("victim"));
    EXPECT_NE(r.status, serve::ClientResult::Status::ok);
  }

  // The injected drop is gone; the same request resumes its journal and
  // completes byte-identically, and an unrelated tenant is unaffected.
  const serve::ClientResult retry = retry_sweep(daemon.client(), small_request("victim"));
  ASSERT_EQ(retry.status, serve::ClientResult::Status::ok) << retry.error;
  EXPECT_EQ(client_csv(retry, "writefail_retry"), expected_small_sweep().csv);
  daemon.stop();
}

TEST(ServeDaemon, DrainFinishesInFlightSweepsAndLeavesNoState) {
  DaemonFixture daemon("serve_drain");

  // Slow the in-flight sweep slightly so the drain demonstrably overlaps it.
  failpoint::Config delay;
  delay.action = failpoint::Action::delay;
  delay.delay_ms = 300;
  delay.fire_count = 1;
  failpoint::ScopedFailpoint hold("engine.format_run", delay);

  serve::ClientResult in_flight;
  std::thread client_thread([&] {
    in_flight = serve::run_sweep(daemon.client(), small_request("drainee"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  daemon.stop();  // drain: listener closes first, the sweep finishes
  client_thread.join();

  ASSERT_EQ(in_flight.status, serve::ClientResult::Status::ok) << in_flight.error;
  EXPECT_EQ(client_csv(in_flight, "drained"), expected_small_sweep().csv);

  // New connections fail fast — the socket file is gone.
  EXPECT_THROW((void)serve::connect_unix(daemon.server->options().socket_path), IoError);

  // Completed sweeps removed their journal namespaces, and no temp files
  // linger anywhere under the state root.
  std::size_t leftovers = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(daemon.server->options().state_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp") != std::string::npos) ++leftovers;
  }
  EXPECT_EQ(leftovers, 0u);
  const std::filesystem::path sweeps =
      std::filesystem::path(daemon.server->options().state_dir) / "sweeps";
  EXPECT_TRUE(std::filesystem::is_empty(sweeps));
}

}  // namespace
}  // namespace mfla

// Reference-solution cache tests: content hashing, binary round-trip
// exactness (eigenvalue/vector bits), key sensitivity, corrupted-entry
// fallback, and the engine-level cold-vs-warm byte-identity guarantee.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/sweep.hpp"
#include "core/experiment.hpp"
#include "core/reference_cache.hpp"
#include "core/results_io.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(Hash128, DeterministicAndSensitive) {
  const auto digest = [](std::uint64_t a, std::uint64_t b) {
    Hasher h;
    h.u64(a).u64(b);
    return h.finish();
  };
  EXPECT_EQ(digest(1, 2), digest(1, 2));
  EXPECT_NE(digest(1, 2), digest(2, 1));
  EXPECT_NE(digest(1, 2), digest(1, 3));
  EXPECT_NE(digest(0, 0), digest(0, 1));
  // Single-bit flips anywhere in a word change the digest.
  const Hash128 base = digest(0x123456789abcdef0ull, 42);
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_NE(base, digest(0x123456789abcdef0ull ^ (1ull << bit), 42));
  }
}

TEST(Hash128, ByteRangesAreFramed) {
  const auto str2 = [](std::string_view a, std::string_view b) {
    Hasher h;
    h.str(a).str(b);
    return h.finish();
  };
  EXPECT_NE(str2("ab", "c"), str2("a", "bc"));
  EXPECT_NE(str2("", "abc"), str2("abc", ""));
  // -0.0 and +0.0 hash differently (bit-level, not value-level).
  Hasher hp, hn;
  hp.f64(0.0);
  hn.f64(-0.0);
  EXPECT_NE(hp.finish(), hn.finish());
}

TEST(Hash128, HexIsStableAndFilenameSafe) {
  Hasher h;
  h.str("hex probe");
  const std::string hex = h.finish().hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
  Hasher h2;
  h2.str("hex probe");
  EXPECT_EQ(hex, h2.finish().hex());
}

// ---------------------------------------------------------------------------
// Cache fixtures
// ---------------------------------------------------------------------------

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) : path("test_out/" + name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::vector<TestMatrix> cache_dataset() {
  std::vector<TestMatrix> ds;
  Rng r1(7001), r2(7002);
  ds.push_back(make_test_matrix("rc_er_a", "social", "soc",
                                graph_laplacian_pipeline(erdos_renyi(40, 0.16, r1))));
  ds.push_back(make_test_matrix("rc_er_b", "biological", "protein",
                                graph_laplacian_pipeline(erdos_renyi(46, 0.13, r2))));
  return ds;
}

ExperimentConfig cache_config() {
  ExperimentConfig cfg;
  cfg.nev = 5;
  cfg.buffer = 2;
  cfg.max_restarts = 80;
  cfg.reference_max_restarts = 150;
  return cfg;
}

ReferenceSolution sample_solution() {
  ReferenceSolution ref;
  ref.ok = true;
  // Deliberately nasty doubles: denormal, -0.0, huge, tiny, irrational.
  ref.values = {1.0, -0.0, 5e-324, 1.7976931348623157e308, 0x1.fffffffffffffp-1022,
                3.141592653589793};
  ref.vectors = DenseMatrix<double>(4, 3);
  double x = -1.0;
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 4; ++i) {
      ref.vectors(i, j) = x;
      x = x * -1.75 + 0.125;
    }
  return ref;
}

Hash128 sample_key(std::uint64_t salt = 0) {
  Hasher h;
  h.str("test key").u64(salt);
  return h.finish();
}

// ---------------------------------------------------------------------------
// Binary round-trip
// ---------------------------------------------------------------------------

TEST(ReferenceCache, RoundTripIsBitExact) {
  TempDir dir("refcache_roundtrip");
  ReferenceCache cache(dir.path);
  const ReferenceSolution ref = sample_solution();
  const Hash128 key = sample_key();
  cache.store(key, ref);

  ReferenceSolution back;
  ASSERT_TRUE(cache.load(key, back));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.failure, ref.failure);
  ASSERT_EQ(back.values.size(), ref.values.size());
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.values[i]),
              std::bit_cast<std::uint64_t>(ref.values[i]))
        << "value " << i << " lost bits";
  }
  ASSERT_EQ(back.vectors.rows(), ref.vectors.rows());
  ASSERT_EQ(back.vectors.cols(), ref.vectors.cols());
  for (std::size_t j = 0; j < ref.vectors.cols(); ++j)
    for (std::size_t i = 0; i < ref.vectors.rows(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.vectors(i, j)),
                std::bit_cast<std::uint64_t>(ref.vectors(i, j)));
    }

  const RefCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.rejects, 0u);
}

TEST(ReferenceCache, FailureEntriesRoundTrip) {
  TempDir dir("refcache_failure");
  ReferenceCache cache(dir.path);
  ReferenceSolution fail;
  fail.ok = false;
  fail.failure = "reference did not converge";
  const Hash128 key = sample_key(1);
  cache.store(key, fail);
  ReferenceSolution back;
  ASSERT_TRUE(cache.load(key, back));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.failure, fail.failure);
  EXPECT_TRUE(back.values.empty());
}

TEST(ReferenceCache, MissOnAbsentKey) {
  TempDir dir("refcache_miss");
  ReferenceCache cache(dir.path);
  ReferenceSolution out;
  EXPECT_FALSE(cache.load(sample_key(2), out));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().rejects, 0u);
}

// ---------------------------------------------------------------------------
// Key sensitivity
// ---------------------------------------------------------------------------

TEST(ReferenceCacheKey, SensitiveToEveryInput) {
  auto ds = cache_dataset();
  const ExperimentConfig cfg = cache_config();
  Rng rng(ds[0].name, cfg.seed);
  const std::vector<double> start = rng.unit_vector(ds[0].n());

  const Hash128 base = reference_cache_key(ds[0].matrix, cfg, start);
  EXPECT_EQ(base, reference_cache_key(ds[0].matrix, cfg, start)) << "key not deterministic";

  // Flip the lowest mantissa bit of one matrix value.
  {
    TestMatrix tm = ds[0];
    auto& vals = tm.matrix.mutable_values();
    ASSERT_FALSE(vals.empty());
    vals[vals.size() / 2] =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(vals[vals.size() / 2]) ^ 1ull);
    EXPECT_NE(base, reference_cache_key(tm.matrix, cfg, start));
  }
  // A different matrix (same config) misses.
  EXPECT_NE(base, reference_cache_key(ds[1].matrix, cfg, start));
  // Each config field participates.
  {
    ExperimentConfig c = cfg;
    c.nev += 1;
    EXPECT_NE(base, reference_cache_key(ds[0].matrix, c, start));
  }
  {
    ExperimentConfig c = cfg;
    c.buffer += 1;
    EXPECT_NE(base, reference_cache_key(ds[0].matrix, c, start));
  }
  {
    ExperimentConfig c = cfg;
    c.which = Which::smallest_magnitude;
    EXPECT_NE(base, reference_cache_key(ds[0].matrix, c, start));
  }
  {
    ExperimentConfig c = cfg;
    c.reference_max_restarts += 1;
    EXPECT_NE(base, reference_cache_key(ds[0].matrix, c, start));
  }
  {
    ExperimentConfig c = cfg;
    c.seed ^= 1;
    EXPECT_NE(base, reference_cache_key(ds[0].matrix, c, start));
  }
  // One start-vector bit.
  {
    std::vector<double> s2 = start;
    s2[3] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(s2[3]) ^ 1ull);
    EXPECT_NE(base, reference_cache_key(ds[0].matrix, cfg, s2));
  }
}

// ---------------------------------------------------------------------------
// Corruption fallback
// ---------------------------------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void store_entry() {
    // Per-test-case directory: ctest runs gtest cases as parallel
    // processes, so siblings must not share (and remove_all) one dir.
    dir_ = std::make_unique<TempDir>(
        std::string("refcache_corrupt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    cache_ = std::make_unique<ReferenceCache>(dir_->path);
    cache_->store(key_, sample_solution());
    path_ = cache_->entry_path(key_);
  }

  std::string read_file() {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  void write_file(const std::string& blob) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  /// A rejected entry must fall back to recomputation: load() == false and
  /// the reject counter advances (a miss would not).
  void expect_reject() {
    const std::uint64_t before = cache_->stats().rejects;
    ReferenceSolution out;
    EXPECT_FALSE(cache_->load(key_, out));
    EXPECT_EQ(cache_->stats().rejects, before + 1);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<ReferenceCache> cache_;
  Hash128 key_ = sample_key(3);
  std::string path_;
};

TEST_F(CorruptionTest, TruncatedEntryRejected) {
  store_entry();
  const std::string blob = read_file();
  write_file(blob.substr(0, blob.size() / 2));
  expect_reject();
}

TEST_F(CorruptionTest, EmptyEntryRejected) {
  store_entry();
  write_file("");
  expect_reject();
}

TEST_F(CorruptionTest, FlippedPayloadByteRejected) {
  store_entry();
  std::string blob = read_file();
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
  write_file(blob);
  expect_reject();
}

TEST_F(CorruptionTest, VersionMismatchRejected) {
  store_entry();
  std::string blob = read_file();
  blob[8] = static_cast<char>(blob[8] ^ 0xff);  // version field follows the magic
  write_file(blob);
  expect_reject();
}

TEST_F(CorruptionTest, ForeignMagicRejected) {
  store_entry();
  std::string blob = read_file();
  blob[0] = 'X';
  write_file(blob);
  expect_reject();
}

TEST_F(CorruptionTest, WrongKeyEchoRejected) {
  store_entry();
  std::string blob = read_file();
  blob[12] = static_cast<char>(blob[12] ^ 1);  // key echo follows the version
  write_file(blob);
  expect_reject();
}

TEST_F(CorruptionTest, RecomputeAndStoreHealsEntry) {
  store_entry();
  write_file("garbage");
  expect_reject();
  cache_->store(key_, sample_solution());  // what the engine does after a reject
  ReferenceSolution out;
  EXPECT_TRUE(cache_->load(key_, out));
  EXPECT_TRUE(out.ok);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string csv_of(const std::vector<MatrixResult>& results, const std::string& tag) {
  const std::string path = "test_out/refcache_" + tag + ".csv";
  write_results_csv(path, results);
  std::string data = slurp(path);
  std::remove(path.c_str());
  return data;
}

// ---------------------------------------------------------------------------
// Durability: failpoint-driven store failures, quarantine, degraded mode
// ---------------------------------------------------------------------------

class CacheDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }

  /// Temp-file leftovers would mean a failed attempt leaked its unpublished
  /// write; every abandoned attempt must clean up after itself.
  static std::size_t tmp_files_in(const std::string& dir) {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.path().filename().string().rfind(".tmp-", 0) == 0) ++n;
    return n;
  }
};

TEST_F(CacheDurabilityTest, StoreRetriesTransientWriteErrorThenSucceeds) {
  TempDir dir("refcache_retry");
  ReferenceCache cache(dir.path);
  // ENOSPC on the first two write attempts; the third succeeds.
  failpoint::arm_from_spec("refcache.store.write=error(enospc)@1+2");
  cache.store(sample_key(10), sample_solution());
  const RefCacheStats s = cache.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.store_retries, 2u);
  EXPECT_EQ(s.store_failures, 0u);
  EXPECT_FALSE(s.degraded);
  EXPECT_EQ(tmp_files_in(dir.path), 0u);
  ReferenceSolution back;
  EXPECT_TRUE(cache.load(sample_key(10), back));
}

TEST_F(CacheDurabilityTest, StoreRetriesRenameErrorThenSucceeds) {
  TempDir dir("refcache_rename");
  ReferenceCache cache(dir.path);
  failpoint::arm_from_spec("refcache.store.rename=error(eio)@1+1");
  cache.store(sample_key(11), sample_solution());
  const RefCacheStats s = cache.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.store_retries, 1u);
  EXPECT_EQ(s.store_failures, 0u);
  EXPECT_EQ(tmp_files_in(dir.path), 0u);
  ReferenceSolution back;
  EXPECT_TRUE(cache.load(sample_key(11), back));
}

TEST_F(CacheDurabilityTest, ExhaustedRetriesCountAFailureButDoNotDegradeYet) {
  TempDir dir("refcache_enospc");
  ReferenceCache cache(dir.path);
  failpoint::arm_from_spec("refcache.store.write=error(enospc)");  // every attempt
  cache.store(sample_key(12), sample_solution());
  const RefCacheStats s = cache.stats();
  EXPECT_EQ(s.stores, 0u);
  EXPECT_EQ(s.store_retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(s.store_failures, 1u);
  EXPECT_FALSE(s.degraded) << "one abandoned store must not disable the cache";
  EXPECT_EQ(tmp_files_in(dir.path), 0u);
  ReferenceSolution back;
  EXPECT_FALSE(cache.load(sample_key(12), back));
  failpoint::disarm_all();
  // The cache is still live: the next store (disk freed) works.
  cache.store(sample_key(12), sample_solution());
  EXPECT_TRUE(cache.load(sample_key(12), back));
}

TEST_F(CacheDurabilityTest, ConsecutiveStoreFailuresDegradeToRecomputeOnly) {
  TempDir dir("refcache_degrade");
  ReferenceCache cache(dir.path);
  failpoint::arm_from_spec("refcache.store.write=error(enospc)");
  for (std::uint64_t i = 0; i < 3; ++i) cache.store(sample_key(20 + i), sample_solution());
  EXPECT_TRUE(cache.degraded());
  EXPECT_EQ(cache.stats().store_failures, 3u);
  failpoint::disarm_all();
  // Degraded is sticky: even with I/O healthy again, stores are no-ops
  // (a full disk costs a handful of failed writes, not one per matrix).
  cache.store(sample_key(23), sample_solution());
  EXPECT_EQ(cache.stats().stores, 0u);
  ReferenceSolution back;
  EXPECT_FALSE(cache.load(sample_key(23), back));
}

TEST_F(CacheDurabilityTest, UnreadableEntryIsQuarantined) {
  TempDir dir("refcache_shortread");
  ReferenceCache cache(dir.path);
  cache.store(sample_key(30), sample_solution());
  const std::string path = cache.entry_path(sample_key(30));
  failpoint::arm_from_spec("refcache.load.read=error(eio)@1+1");
  ReferenceSolution back;
  EXPECT_FALSE(cache.load(sample_key(30), back));
  const RefCacheStats s = cache.stats();
  EXPECT_EQ(s.rejects, 1u);
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".bad")) << "corrupt bytes kept for post-mortem";
  // The quarantined entry never warns again: the next load is a plain miss.
  EXPECT_FALSE(cache.load(sample_key(30), back));
  EXPECT_EQ(cache.stats().rejects, 1u);
}

TEST_F(CacheDurabilityTest, CorruptEntryQuarantinedThenHealedByRestore) {
  TempDir dir("refcache_quarantine");
  ReferenceCache cache(dir.path);
  cache.store(sample_key(31), sample_solution());
  const std::string path = cache.entry_path(sample_key(31));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  ReferenceSolution back;
  EXPECT_FALSE(cache.load(sample_key(31), back));
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
  cache.store(sample_key(31), sample_solution());  // recompute-and-store heals
  EXPECT_TRUE(cache.load(sample_key(31), back));
  EXPECT_TRUE(std::filesystem::exists(path + ".bad")) << "quarantine survives the heal";
}

TEST_F(CacheDurabilityTest, ConcurrentStoresOfOneKeyAllPublishCleanly) {
  TempDir dir("refcache_concurrent");
  ReferenceCache cache(dir.path);
  const ReferenceSolution ref = sample_solution();
  // Sprinkle transient failures across the racing producers; unique temp
  // names mean they cannot clobber each other's in-flight writes.
  failpoint::arm_from_spec("refcache.store.write=error(enospc)@2+3");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] { cache.store(sample_key(40), ref); });
  for (auto& th : threads) th.join();
  failpoint::disarm_all();
  EXPECT_EQ(tmp_files_in(dir.path), 0u);
  ReferenceSolution back;
  ASSERT_TRUE(cache.load(sample_key(40), back));
  ASSERT_EQ(back.values.size(), ref.values.size());
  for (std::size_t i = 0; i < ref.values.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.values[i]),
              std::bit_cast<std::uint64_t>(ref.values[i]));
}

TEST_F(CacheDurabilityTest, TwoWriterProcessesShareOneDirectoryCleanly) {
  // The serving scenario: several daemons (processes) share one cache
  // directory. Each writer gets its own ReferenceCache instance, so the
  // only serialization between them is the advisory flock on the rename
  // seams. Both processes hammer the same key set; afterwards every entry
  // must load bit-exact and no temp file may be left behind.
  TempDir dir("refcache_twoproc");
  const ReferenceSolution ref = sample_solution();
  constexpr std::uint64_t kKeys = 16;

  const auto writer = [&](std::uint64_t salt_offset) {
    ReferenceCache cache(dir.path);
    bool ok = true;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      cache.store(sample_key(100 + (k + salt_offset) % kKeys), ref);
      ReferenceSolution back;
      // A load may race the other process's in-flight publish of this key
      // only before anyone stored it — by the time our own store returned,
      // the entry exists (renames never unpublish), so this must hit.
      ok = ok && cache.load(sample_key(100 + (k + salt_offset) % kKeys), back);
    }
    return ok;
  };

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: plain _exit so gtest machinery/buffers are not double-run.
    const bool ok = writer(kKeys / 2);
    ::_exit(ok ? 0 : 1);
  }
  const bool parent_ok = writer(0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "child writer failed";
  EXPECT_TRUE(parent_ok);

  EXPECT_EQ(tmp_files_in(dir.path), 0u);
  ReferenceCache reader(dir.path);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ReferenceSolution back;
    ASSERT_TRUE(reader.load(sample_key(100 + k), back)) << "key " << k;
    ASSERT_EQ(back.values.size(), ref.values.size());
    for (std::size_t i = 0; i < ref.values.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.values[i]),
                std::bit_cast<std::uint64_t>(ref.values[i]));
  }
}

TEST_F(CacheDurabilityTest, ConcurrentRejectersQuarantineExactlyOnce) {
  // Two cache instances on one directory (the two-daemon shape, flock
  // between distinct fds) race to reject the same corrupt entry from four
  // threads. However the interleaving falls, the quarantine rename must
  // happen exactly once: one .bad file, a combined quarantined count of 1,
  // and no error for the losers (they see a plain miss).
  TempDir dir("refcache_quarantine_race");
  ReferenceCache a(dir.path), b(dir.path);
  a.store(sample_key(60), sample_solution());
  const std::string path = a.entry_path(sample_key(60));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      ReferenceSolution back;
      EXPECT_FALSE((t % 2 == 0 ? a : b).load(sample_key(60), back));
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(a.stats().quarantined + b.stats().quarantined, 1u)
      << "the .bad rename raced into a double quarantine";
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
}

TEST_F(CacheDurabilityTest, UncreatableDirectoryDegradesInsteadOfThrowing) {
  failpoint::arm_from_spec("refcache.open=error(eacces)");
  ReferenceCache cache("test_out/refcache_nodir_" +
                       std::to_string(::getpid()));  // never created
  failpoint::disarm_all();
  EXPECT_TRUE(cache.degraded());
  EXPECT_TRUE(cache.stats().degraded);
  cache.store(sample_key(50), sample_solution());
  ReferenceSolution back;
  EXPECT_FALSE(cache.load(sample_key(50), back));
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST_F(CacheDurabilityTest, SweepWithUnwritableCacheCompletesWithCorrectResults) {
  // The acceptance bar: ENOSPC / unwritable cache dir must never kill a
  // sweep — it completes, produces byte-identical results, and reports the
  // degradation in stats.
  const auto ds = cache_dataset();
  const std::vector<FormatId> formats = {FormatId::float32, FormatId::takum16};
  const ExperimentConfig cfg = cache_config();

  const auto sweep = [&] { return api::Sweep::over(ds).formats(formats).config(cfg).threads(2); };
  const std::string plain_csv = csv_of(sweep().run().results, "deg_plain");

  failpoint::arm_from_spec("refcache.open=error(eacces)");
  ReferenceCache cache("test_out/refcache_deg_" + std::to_string(::getpid()));
  failpoint::disarm_all();
  ASSERT_TRUE(cache.degraded());
  const api::SweepResult degraded = sweep().cache(&cache).run();
  EXPECT_EQ(plain_csv, csv_of(degraded.results, "deg_swept"));
  EXPECT_EQ(degraded.stats.reference_solves, ds.size())
      << "degraded cache recomputes every reference";
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_TRUE(cache.stats().degraded);
}

// ---------------------------------------------------------------------------
// Engine integration: cold vs warm
// ---------------------------------------------------------------------------

TEST(ReferenceCacheEngine, WarmSweepSkipsAllReferenceSolvesAndMatchesColdByteForByte) {
  TempDir dir("refcache_engine");
  const auto ds = cache_dataset();
  const std::vector<FormatId> formats = {FormatId::float32, FormatId::takum16};
  const ExperimentConfig cfg = cache_config();

  ReferenceCache cache(dir.path);
  const auto sweep = [&] { return api::Sweep::over(ds).formats(formats).config(cfg).threads(2); };
  const api::SweepResult cold = sweep().cache(&cache).run();
  const std::string cold_csv = csv_of(cold.results, "cold");
  EXPECT_EQ(cold.stats.reference_solves, ds.size());
  EXPECT_EQ(cold.stats.reference_cache_hits, 0u);
  EXPECT_EQ(cache.stats().stores, ds.size());

  const api::SweepResult warm = sweep().cache(&cache).run();
  const std::string warm_csv = csv_of(warm.results, "warm");
  // The acceptance bar: a warm sweep executes zero float128 solves...
  EXPECT_EQ(warm.stats.reference_solves, 0u);
  EXPECT_EQ(warm.stats.reference_cache_hits, ds.size());
  // ...and its CSV is byte-identical to the cold run's.
  EXPECT_EQ(cold_csv, warm_csv);

  // Uncached control: the cache changed nothing numerically.
  EXPECT_EQ(cold_csv, csv_of(sweep().run().results, "plain"));
}

TEST(ReferenceCacheEngine, JournaledCompleteMatrixNeverTouchesTheCache) {
  TempDir dir("refcache_resume");
  const auto ds = cache_dataset();
  const std::vector<FormatId> formats = {FormatId::float32};
  const ExperimentConfig cfg = cache_config();
  const std::string ck = "test_out/refcache_resume.jsonl";
  std::remove(ck.c_str());

  const auto sweep = [&] {
    return api::Sweep::over(ds).formats(formats).config(cfg).threads(2).checkpoint(ck);
  };
  const auto results = sweep().run().results;
  for (const auto& r : results) ASSERT_TRUE(r.reference_ok);

  // Resume with every run journaled: matrices retire before their
  // prerequisite task is scheduled, so the attached cache sees no traffic
  // (satellite: "a journaled-complete matrix must not even open the cache
  // file").
  ReferenceCache cache(dir.path);
  const auto resumed = sweep().resume().cache(&cache).run().results;
  EXPECT_EQ(csv_of(results, "j_first"), csv_of(resumed, "j_resumed"));
  EXPECT_EQ(cache.stats().lookups, 0u);
  EXPECT_EQ(cache.stats().stores, 0u);
  std::remove(ck.c_str());
}

TEST(ReferenceCacheEngine, ResumePlusCacheComputesOnlyMissingWork) {
  TempDir dir("refcache_partial");
  const auto ds = cache_dataset();
  const std::vector<FormatId> formats = {FormatId::float32, FormatId::takum16};
  const ExperimentConfig cfg = cache_config();
  const std::string ck = "test_out/refcache_partial.jsonl";
  std::remove(ck.c_str());

  // Cold checkpointed+cached run, then truncate the journal to meta + one
  // run line (simulated crash): the resume needs references again, which
  // now all come from the cache.
  ReferenceCache cache(dir.path);
  const auto sweep = [&] {
    return api::Sweep::over(ds).formats(formats).config(cfg).threads(2).checkpoint(ck).cache(
        &cache);
  };
  const std::string full_csv = csv_of(sweep().run().results, "p_full");

  std::string meta_and_one;
  {
    std::ifstream in(ck);
    std::string line;
    for (int kept = 0; kept < 2 && std::getline(in, line); ++kept)
      meta_and_one += line + "\n";
  }
  {
    std::ofstream out(ck, std::ios::trunc);
    out << meta_and_one;
  }

  const api::SweepResult resumed = sweep().resume().run();
  EXPECT_EQ(full_csv, csv_of(resumed.results, "p_resumed"));
  EXPECT_EQ(resumed.stats.reference_solves, 0u) << "warm resume must not re-solve references";
  EXPECT_GT(resumed.stats.reference_cache_hits, 0u);
  std::remove(ck.c_str());
}

// ---------------------------------------------------------------------------
// Journal duration telemetry (satellite: timing field)
// ---------------------------------------------------------------------------

TEST(JournalDuration, RunDurationsAreJournaledAndReplayed) {
  const auto ds = cache_dataset();
  const std::vector<FormatId> formats = {FormatId::float32};
  const ExperimentConfig cfg = cache_config();
  const std::string ck = "test_out/duration_journal.jsonl";
  std::remove(ck.c_str());

  const auto results =
      api::Sweep::over(ds).formats(formats).config(cfg).threads(2).checkpoint(ck).run().results;
  for (const auto& mr : results)
    for (const auto& run : mr.runs) EXPECT_GT(run.duration_seconds, 0.0);

  const JournalContents jc = read_journal(ck);
  ASSERT_EQ(jc.runs.size(), ds.size() * formats.size());
  for (const auto& mr : results) {
    for (const auto& run : mr.runs) {
      const auto it = jc.runs.find({mr.name, run.format});
      ASSERT_NE(it, jc.runs.end());
      // %.17g round-trip: the journaled duration is bit-exact.
      EXPECT_EQ(it->second.run.duration_seconds, run.duration_seconds);
    }
  }

  // A journal written before the duration field existed still replays
  // (duration defaults to 0) — strip the field to simulate one.
  const std::string old_ck = "test_out/duration_old.jsonl";
  {
    std::ifstream in(ck);
    std::ofstream out(old_ck, std::ios::trunc);
    std::string line;
    while (std::getline(in, line)) {
      const auto pos = line.find(",\"duration\":");
      if (pos != std::string::npos) {
        const auto end = line.find(",\"failure\"", pos);
        ASSERT_NE(end, std::string::npos);
        line = line.substr(0, pos) + line.substr(end);
      }
      out << line << '\n';
    }
  }
  const JournalContents old_jc = read_journal(old_ck);
  EXPECT_EQ(old_jc.skipped_lines, 0u);
  ASSERT_EQ(old_jc.runs.size(), jc.runs.size());
  for (const auto& [key, jr] : old_jc.runs) EXPECT_EQ(jr.run.duration_seconds, 0.0);
  std::remove(ck.c_str());
  std::remove(old_ck.c_str());
}

}  // namespace
}  // namespace mfla

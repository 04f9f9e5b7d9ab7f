// Double-double arithmetic and tiered-reference tests: error-free
// transformation properties under fuzzing (against a float128 oracle),
// special-value handling (-0.0, denormals, inf/NaN), string/double
// round-trips, codec round-trips, and the engine-level guarantees of the
// dd_first reference tier — byte-identical CSVs against f128_only when no
// promotion occurs, and a constructed ill-conditioned matrix whose
// certification bound is provably unsatisfiable in dd, forcing promotion.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/sweep.hpp"
#include "arith/dd.hpp"
#include "arith/quad.hpp"
#include "arith/traits.hpp"
#include "core/experiment.hpp"
#include "core/reference_cache.hpp"
#include "core/results_io.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

// ---------------------------------------------------------------------------
// Error-free transformations (float128 oracle)
// ---------------------------------------------------------------------------

/// Deterministic fuzz stream of finite doubles with bounded exponent,
/// including negatives, exact powers of two and denormal-scale values.
class DoubleFuzz {
 public:
  explicit DoubleFuzz(std::uint64_t seed) : rng_(seed) {}

  /// A double whose exponent lies within [-window, window].
  double bounded(int window) {
    const double mant = rng_.uniform() * 2.0 - 1.0;  // [-1, 1)
    const int exp = static_cast<int>(rng_.uniform() * (2 * window + 1)) - window;
    return std::ldexp(mant, exp);
  }

 private:
  Rng rng_;
};

TEST(DdErrorFree, TwoSumIsExactInQuad) {
  // s + err == a + b exactly over the reals; with the exponent spread
  // capped at 55 bits the right-hand side needs at most 53 + 55 = 108
  // significand bits, so the float128 oracle (113 bits) evaluates both
  // sides exactly.
  DoubleFuzz fuzz(0xdd5eedu);
  for (int it = 0; it < 20000; ++it) {
    const double a = fuzz.bounded(27);
    const double b = fuzz.bounded(27);
    double err;
    const double s = dd_detail::two_sum(a, b, err);
    EXPECT_EQ(Quad(s) + Quad(err), Quad(a) + Quad(b)) << "a=" << a << " b=" << b;
    // Symmetry: TwoSum does not require |a| >= |b|.
    double err2;
    const double s2 = dd_detail::two_sum(b, a, err2);
    EXPECT_EQ(Quad(s2) + Quad(err2), Quad(a) + Quad(b));
  }
}

TEST(DdErrorFree, QuickTwoSumIsExactWhenOrdered) {
  DoubleFuzz fuzz(0xdd5eed + 1u);
  for (int it = 0; it < 20000; ++it) {
    double a = fuzz.bounded(27);
    double b = fuzz.bounded(27);
    if (std::fabs(a) < std::fabs(b)) std::swap(a, b);
    double err;
    const double s = dd_detail::quick_two_sum(a, b, err);
    EXPECT_EQ(Quad(s) + Quad(err), Quad(a) + Quad(b)) << "a=" << a << " b=" << b;
  }
}

TEST(DdErrorFree, TwoProdIsExactInQuad) {
  // The product of two doubles has at most 106 significand bits, exactly
  // representable in float128 for any in-range exponents.
  DoubleFuzz fuzz(0xdd5eed + 2u);
  for (int it = 0; it < 20000; ++it) {
    const double a = fuzz.bounded(100);
    const double b = fuzz.bounded(100);
    double err;
    const double p = dd_detail::two_prod(a, b, err);
    EXPECT_EQ(Quad(p) + Quad(err), Quad(a) * Quad(b)) << "a=" << a << " b=" << b;
  }
}

TEST(DdErrorFree, FmaProductMatchesDekkerSplitFormulation) {
  // Where the Veltkamp split cannot overflow, Dekker's original 17-flop
  // product and the fma realization produce the identical error term.
  DoubleFuzz fuzz(0xdd5eed + 3u);
  for (int it = 0; it < 20000; ++it) {
    const double a = fuzz.bounded(500);
    const double b = fuzz.bounded(400);
    double fma_err;
    const double p = dd_detail::two_prod(a, b, fma_err);
    double ahi, alo, bhi, blo;
    dd_detail::veltkamp_split(a, ahi, alo);
    dd_detail::veltkamp_split(b, bhi, blo);
    const double dekker_err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fma_err), std::bit_cast<std::uint64_t>(dekker_err))
        << "a=" << a << " b=" << b;
  }
}

TEST(DdErrorFree, TwoSumHandlesDenormalsAndSignedZero) {
  const double denorm = 5e-324;
  double err;
  double s = dd_detail::two_sum(denorm, denorm, err);
  EXPECT_EQ(s, 1e-323);
  EXPECT_EQ(err, 0.0);

  s = dd_detail::two_sum(-0.0, -0.0, err);
  EXPECT_TRUE(std::signbit(s)) << "-0 + -0 must stay -0";
  EXPECT_EQ(err, 0.0);

  s = dd_detail::two_sum(1.0, 5e-324, err);
  EXPECT_EQ(s, 1.0);
  EXPECT_EQ(err, 5e-324) << "the dropped denormal must reappear in the error term";
}

// ---------------------------------------------------------------------------
// DoubleDouble arithmetic
// ---------------------------------------------------------------------------

constexpr double kDdEps = 0x1p-104;

/// |a - b| as a Quad, for accuracy bounds tighter than double can express.
Quad qerr(DoubleDouble a, Quad b) { return abs((Quad(a.hi) + Quad(a.lo)) - b); }

TEST(DoubleDoubleArith, OperationsAreDdAccurate) {
  DoubleFuzz fuzz(0xacc07a7e);
  for (int it = 0; it < 5000; ++it) {
    const DoubleDouble a(fuzz.bounded(20), 0.0);
    const DoubleDouble b(fuzz.bounded(20), 0.0);
    const Quad qa = Quad(a.hi), qb = Quad(b.hi);
    EXPECT_LT(qerr(a + b, qa + qb), Quad(4 * kDdEps) * (abs(qa) + abs(qb)));
    EXPECT_LT(qerr(a - b, qa - qb), Quad(4 * kDdEps) * (abs(qa) + abs(qb)));
    EXPECT_LT(qerr(a * b, qa * qb), Quad(8 * kDdEps) * abs(qa * qb));
    if (b.hi != 0.0) {
      EXPECT_LT(qerr(a / b, qa / qb), Quad(16 * kDdEps) * abs(qa / qb));
    }
  }
}

TEST(DoubleDoubleArith, KeepsBitsDoubleWouldDrop) {
  // 1 + 2^-80 is not representable in double but is in dd.
  const DoubleDouble one(1.0);
  const DoubleDouble tiny(0x1p-80);
  const DoubleDouble sum = one + tiny;
  EXPECT_EQ(sum.hi, 1.0);
  EXPECT_EQ(sum.lo, 0x1p-80);
  EXPECT_EQ((sum - one).hi, 0x1p-80);

  // (1/3) * 3 returns to 1 within a few dd ulps, far beyond double.
  const DoubleDouble third = DoubleDouble(1.0) / DoubleDouble(3.0);
  const DoubleDouble back = third * DoubleDouble(3.0);
  EXPECT_LT(std::fabs((back - DoubleDouble(1.0)).to_double()), 4 * kDdEps);
}

TEST(DoubleDoubleArith, SqrtIsDdAccurate) {
  DoubleFuzz fuzz(0x5c2a00u);
  for (int it = 0; it < 5000; ++it) {
    const double x = std::fabs(fuzz.bounded(40));
    if (x == 0.0) continue;
    const DoubleDouble r = sqrt(DoubleDouble(x));
    const DoubleDouble back = r * r - DoubleDouble(x);
    EXPECT_LT(std::fabs(back.to_double()), 8 * kDdEps * x) << "x=" << x;
  }
  EXPECT_EQ(sqrt(DoubleDouble(0.0)).hi, 0.0);
  EXPECT_TRUE(std::signbit(sqrt(DoubleDouble(-0.0)).hi)) << "sqrt(-0) must be -0";
  EXPECT_TRUE(std::isnan(sqrt(DoubleDouble(-1.0)).hi));
  EXPECT_TRUE(std::isinf(sqrt(DoubleDouble(std::numeric_limits<double>::infinity())).hi));
}

TEST(DoubleDoubleArith, NonFiniteValuesPropagateThroughHi) {
  const double inf = std::numeric_limits<double>::infinity();
  const DoubleDouble big(1e308);
  const DoubleDouble overflow = big + big;
  EXPECT_TRUE(std::isinf(overflow.hi));
  EXPECT_EQ(overflow.lo, 0.0) << "non-finite hi must force lo = 0";
  EXPECT_FALSE(is_number(overflow));

  // inf - inf poisons to NaN, not to a finite pair with NaN residue.
  const DoubleDouble nan_pair = DoubleDouble(inf) - DoubleDouble(inf);
  EXPECT_TRUE(std::isnan(nan_pair.hi));
  EXPECT_EQ(nan_pair.lo, 0.0);
  EXPECT_FALSE(is_number(nan_pair));

  EXPECT_TRUE(std::isinf((DoubleDouble(1.0) / DoubleDouble(0.0)).hi));
  EXPECT_TRUE(std::isnan((DoubleDouble(0.0) / DoubleDouble(0.0)).hi));
  EXPECT_TRUE(is_number(DoubleDouble(1.0) / DoubleDouble(3.0)));
}

TEST(DoubleDoubleArith, ComparisonsAreIeeeOnNaNAndLexicographicOtherwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const DoubleDouble qnan(nan);
  EXPECT_FALSE(qnan == qnan);
  EXPECT_FALSE(qnan != qnan) << "NaN != NaN is false too (matches the softfloat wrappers)";
  EXPECT_FALSE(qnan < DoubleDouble(1.0));
  EXPECT_FALSE(DoubleDouble(1.0) < qnan);

  // The lo word breaks hi ties.
  EXPECT_LT(DoubleDouble(1.0, -kDdEps), DoubleDouble(1.0));
  EXPECT_GT(DoubleDouble(1.0, kDdEps), DoubleDouble(1.0));
  EXPECT_LE(DoubleDouble(2.0), DoubleDouble(2.0));
  EXPECT_GE(DoubleDouble(2.0), DoubleDouble(2.0));
  EXPECT_LT(abs(DoubleDouble(-3.0)) - DoubleDouble(3.0), DoubleDouble(kDdEps));
}

// ---------------------------------------------------------------------------
// Round-trips: double, string, codec
// ---------------------------------------------------------------------------

const double kRoundTripProbes[] = {0.0,
                                   -0.0,
                                   1.0,
                                   -1.0,
                                   5e-324,
                                   -5e-324,
                                   0x1.fffffffffffffp-1022,
                                   1.7976931348623157e308,
                                   3.141592653589793,
                                   std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity()};

TEST(DoubleDoubleRoundTrip, DoubleConversionIsExact) {
  for (const double x : kRoundTripProbes) {
    const DoubleDouble d = DoubleDouble::from_double(x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.to_double()), std::bit_cast<std::uint64_t>(x));
  }
  EXPECT_TRUE(std::isnan(
      DoubleDouble::from_double(std::numeric_limits<double>::quiet_NaN()).to_double()));
}

TEST(DoubleDoubleRoundTrip, StringRoundTripIsBitExact) {
  DoubleFuzz fuzz(0x57a7e5u);
  std::vector<DoubleDouble> probes;
  for (const double x : kRoundTripProbes) probes.emplace_back(x);
  probes.push_back(DoubleDouble(1.0, 0x1p-80));
  probes.push_back(DoubleDouble(-1.0, -5e-324));
  for (int it = 0; it < 2000; ++it) {
    double err;
    const double s = dd_detail::two_sum(fuzz.bounded(30), fuzz.bounded(30), err);
    probes.push_back(DoubleDouble(s, err));
  }
  for (const DoubleDouble& d : probes) {
    const DoubleDouble back = dd_from_string(dd_to_string(d));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.hi), std::bit_cast<std::uint64_t>(d.hi))
        << dd_to_string(d);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.lo), std::bit_cast<std::uint64_t>(d.lo))
        << dd_to_string(d);
  }
  // NaN round-trips as NaN (payload bits are not promised).
  const DoubleDouble qnan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(dd_from_string(dd_to_string(qnan)).hi));
}

TEST(DoubleDoubleRoundTrip, ScalarCodecRoundTripIsBitExact) {
  DoubleFuzz fuzz(0xc0dec0u);
  for (int it = 0; it < 2000; ++it) {
    double err;
    const double s = dd_detail::two_sum(fuzz.bounded(30), fuzz.bounded(30), err);
    const DoubleDouble d(s, err);
    const auto bits = ScalarCodec<DoubleDouble>::to_bits(d);
    const DoubleDouble back = ScalarCodec<DoubleDouble>::from_bits(bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.hi), std::bit_cast<std::uint64_t>(d.hi));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.lo), std::bit_cast<std::uint64_t>(d.lo));
  }
  EXPECT_EQ(NumTraits<DoubleDouble>::name(), "dd");
  EXPECT_EQ(NumTraits<DoubleDouble>::bits, 128);
  EXPECT_EQ(NumTraits<DoubleDouble>::epsilon(), kDdEps);
}

// ---------------------------------------------------------------------------
// Registry: dd is reference-only
// ---------------------------------------------------------------------------

TEST(DdRegistry, DdIsRegisteredButNotSelectable) {
  const FormatInfo& info = format_info(FormatId::dd);
  EXPECT_EQ(info.key, "dd");
  EXPECT_EQ(info.bits, 128);
  EXPECT_TRUE(info.reference_only);
  EXPECT_THROW((void)parse_format_keys("dd"), std::invalid_argument);
  // dispatch still reaches the dd scalar type (the tier driver needs it).
  const int bits = dispatch_format(FormatId::dd, [](auto tag) {
    using T = typename decltype(tag)::type;
    return NumTraits<T>::bits;
  });
  EXPECT_EQ(bits, 128);
}

// ---------------------------------------------------------------------------
// Tiered reference: engine-level guarantees
// ---------------------------------------------------------------------------

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) : path("test_out/" + name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::vector<TestMatrix> tier_dataset() {
  std::vector<TestMatrix> ds;
  Rng r1(9101), r2(9102);
  ds.push_back(make_test_matrix("dd_er_a", "social", "soc",
                                graph_laplacian_pipeline(erdos_renyi(40, 0.16, r1))));
  ds.push_back(make_test_matrix("dd_er_b", "biological", "protein",
                                graph_laplacian_pipeline(erdos_renyi(46, 0.13, r2))));
  return ds;
}

ExperimentConfig tier_config(ReferenceTier tier) {
  ExperimentConfig cfg;
  cfg.nev = 5;
  cfg.buffer = 2;
  cfg.max_restarts = 80;
  cfg.reference_max_restarts = 150;
  cfg.reference_tier = tier;
  return cfg;
}

std::string csv_of(const std::vector<MatrixResult>& results, const std::string& tag) {
  const std::string path = "test_out/ddtier_" + tag + ".csv";
  write_results_csv(path, results);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(ReferenceTierEngine, DdFirstMatchesF128OnlyByteForByteWhenNothingPromotes) {
  const auto ds = tier_dataset();
  const std::vector<FormatId> formats = {FormatId::float32, FormatId::takum16};

  const auto sweep = [&](ReferenceTier tier) {
    return api::Sweep::over(ds).formats(formats).config(tier_config(tier)).threads(2).run();
  };
  const api::SweepResult f128 = sweep(ReferenceTier::f128_only);
  const std::string f128_csv = csv_of(f128.results, "f128");
  EXPECT_EQ(f128.stats.reference_dd_solves, 0u) << "f128_only must never touch dd";
  EXPECT_EQ(f128.stats.reference_promotions, 0u);

  const api::SweepResult dd = sweep(ReferenceTier::dd_first);
  const std::string dd_csv = csv_of(dd.results, "dd");

  // Well-conditioned Laplacians certify in dd: no promotion, and the CSV —
  // every eigenvalue/eigenvector error of every format run — is
  // byte-identical to the float128 oracle's.
  EXPECT_EQ(dd.stats.reference_dd_solves, ds.size());
  EXPECT_EQ(dd.stats.reference_dd_certified, ds.size());
  EXPECT_EQ(dd.stats.reference_promotions, 0u);
  EXPECT_GT(dd.stats.reference_dd_seconds, 0.0);
  EXPECT_EQ(dd.stats.reference_f128_seconds, 0.0);
  EXPECT_EQ(dd_csv, f128_csv);
}

/// A matrix whose adequacy bound is provably unsatisfiable in dd: the kept
/// eigenvalue lambda_k = 1e-10 makes the measurement threshold
/// kReferenceTolerance * |lambda_k| = 1e-30 smaller than the dd evaluation
/// margin gamma = 16 n eps_dd ||A||_F ~ 3.4e-29 by a factor ~34, so dd
/// cannot even measure residuals at the required scale — regardless of how
/// well the solve converged — and the tier must promote to float128 (whose
/// own evaluation floor ~ n eps_q ||A||_F ~ 5e-33 clears 1e-30 comfortably).
TestMatrix promotion_matrix() {
  const std::size_t n = 25;
  CooMatrix coo(n, n);
  const double leading[] = {1.0, 0.9, 0.8, 0.7};
  for (std::size_t i = 0; i < 4; ++i) coo.add(i, i, leading[i]);
  coo.add(4, 4, 1e-10);  // the provably unmeasurable kept eigenvalue
  for (std::size_t i = 5; i < n; ++i)
    coo.add(i, i, 1e-12 * static_cast<double>(n - i));  // well below lambda_4
  return make_test_matrix("dd_promote", "synthetic", "diag", coo);
}

TEST(ReferenceTierEngine, IllConditionedMatrixForcesPromotionAndMatchesF128) {
  const TestMatrix tm = promotion_matrix();
  ExperimentConfig cfg = tier_config(ReferenceTier::dd_first);
  cfg.nev = 3;
  cfg.buffer = 2;  // kept set reaches the 1e-9 eigenvalue

  // The bound is unsatisfiable on paper; check the driver agrees.
  Rng rng(tm.name, cfg.seed);
  const std::vector<double> start = rng.unit_vector(tm.n());
  const TieredReference tiered = compute_reference_tiered(tm, cfg, start);
  EXPECT_TRUE(tiered.tier.dd_attempted);
  EXPECT_FALSE(tiered.tier.dd_certified);
  EXPECT_TRUE(tiered.tier.promoted);
  EXPECT_FALSE(tiered.tier.dd_failure.empty());

  // The promoted result is the float128 oracle's, bit for bit.
  ExperimentConfig f128_cfg = cfg;
  f128_cfg.reference_tier = ReferenceTier::f128_only;
  const TieredReference oracle = compute_reference_tiered(tm, f128_cfg, start);
  EXPECT_FALSE(oracle.tier.dd_attempted);
  EXPECT_TRUE(oracle.solution.ok) << oracle.solution.failure;
  ASSERT_EQ(tiered.solution.ok, oracle.solution.ok);
  EXPECT_EQ(tiered.solution.failure, oracle.solution.failure);
  ASSERT_EQ(tiered.solution.values.size(), oracle.solution.values.size());
  for (std::size_t i = 0; i < oracle.solution.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tiered.solution.values[i]),
              std::bit_cast<std::uint64_t>(oracle.solution.values[i]));
  }
  ASSERT_EQ(tiered.solution.vectors.rows(), oracle.solution.vectors.rows());
  ASSERT_EQ(tiered.solution.vectors.cols(), oracle.solution.vectors.cols());
  for (std::size_t j = 0; j < oracle.solution.vectors.cols(); ++j)
    for (std::size_t i = 0; i < oracle.solution.vectors.rows(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(tiered.solution.vectors(i, j)),
                std::bit_cast<std::uint64_t>(oracle.solution.vectors(i, j)));
    }

  // Engine telemetry counts the promotion.
  const auto sweep = [&](const ExperimentConfig& c) {
    return api::Sweep::over({tm}).formats({FormatId::float64}).config(c).threads(1).run();
  };
  const api::SweepResult dd = sweep(cfg);
  EXPECT_EQ(dd.stats.reference_dd_solves, 1u);
  EXPECT_EQ(dd.stats.reference_promotions, 1u);
  EXPECT_EQ(dd.stats.reference_dd_certified, 0u);
  const api::SweepResult f128 = sweep(f128_cfg);
  EXPECT_EQ(csv_of(dd.results, "promo_dd"), csv_of(f128.results, "promo_f128"));
}

TEST(ReferenceTierCache, TiersUseDistinctKeysAndBothRoundTrip) {
  const auto ds = tier_dataset();
  const ExperimentConfig f128_cfg = tier_config(ReferenceTier::f128_only);
  const ExperimentConfig dd_cfg = tier_config(ReferenceTier::dd_first);
  Rng rng(ds[0].name, f128_cfg.seed);
  const std::vector<double> start = rng.unit_vector(ds[0].n());

  // Tier participates in the key — but only for non-default tiers, so
  // caches written before the tier existed keep hitting under f128_only.
  EXPECT_NE(reference_cache_key(ds[0].matrix, f128_cfg, start),
            reference_cache_key(ds[0].matrix, dd_cfg, start));
  EXPECT_EQ(reference_cache_key(ds[0].matrix, f128_cfg, start),
            reference_cache_key(ds[0].matrix, f128_cfg, start));

  // Cold dd_first sweep populates the cache; the warm rerun executes zero
  // solves of either tier and reproduces the CSV byte for byte.
  TempDir dir("ddtier_cache");
  ReferenceCache cache(dir.path);
  const std::vector<FormatId> formats = {FormatId::float32};
  const auto sweep = [&] {
    return api::Sweep::over(ds).formats(formats).config(dd_cfg).threads(2).cache(&cache).run();
  };
  const api::SweepResult cold = sweep();
  const std::string cold_csv = csv_of(cold.results, "cache_cold");
  EXPECT_EQ(cold.stats.reference_dd_solves, ds.size());

  const api::SweepResult warm = sweep();
  const std::string warm_csv = csv_of(warm.results, "cache_warm");
  EXPECT_EQ(warm.stats.reference_solves, 0u);
  EXPECT_EQ(warm.stats.reference_dd_solves, 0u);
  EXPECT_EQ(warm.stats.reference_cache_hits, ds.size());
  EXPECT_EQ(cold_csv, warm_csv);
}

TEST(ReferenceTierJournal, MetaRecordsTierAndOldJournalsReadAsF128Only) {
  const ExperimentConfig dd_cfg = tier_config(ReferenceTier::dd_first);
  const std::vector<FormatId> formats = {FormatId::float32};
  const JournalMeta meta = make_journal_meta(dd_cfg, formats, 1);
  EXPECT_EQ(meta.reference_tier, static_cast<int>(ReferenceTier::dd_first));

  const std::string path = "test_out/ddtier_meta.jsonl";
  std::filesystem::create_directories("test_out");
  {
    JournalWriter w(path, /*truncate=*/true);
    w.write_meta(meta);
  }
  const JournalContents jc = read_journal(path);
  ASSERT_TRUE(jc.has_meta);
  EXPECT_EQ(jc.meta.reference_tier, static_cast<int>(ReferenceTier::dd_first));
  EXPECT_TRUE(jc.meta == meta);

  // Strip the ref_tier field to simulate a journal written before the
  // tier existed: it must read back as f128_only (the old behavior).
  const std::string old_path = "test_out/ddtier_meta_old.jsonl";
  {
    std::ifstream in(path);
    std::ofstream out(old_path, std::ios::trunc);
    std::string line;
    while (std::getline(in, line)) {
      const auto pos = line.find(",\"ref_tier\":1");
      ASSERT_NE(pos, std::string::npos);
      out << line.substr(0, pos) + line.substr(pos + 13) << '\n';
    }
  }
  const JournalContents old_jc = read_journal(old_path);
  ASSERT_TRUE(old_jc.has_meta);
  EXPECT_EQ(old_jc.meta.reference_tier, static_cast<int>(ReferenceTier::f128_only));
  std::remove(path.c_str());
  std::remove(old_path.c_str());
}

TEST(ReferenceTierNames, ParseAndPrintRoundTrip) {
  EXPECT_STREQ(reference_tier_name(ReferenceTier::f128_only), "f128_only");
  EXPECT_STREQ(reference_tier_name(ReferenceTier::dd_first), "dd_first");
  EXPECT_EQ(reference_tier_from_name("f128_only"), ReferenceTier::f128_only);
  EXPECT_EQ(reference_tier_from_name("dd_first"), ReferenceTier::dd_first);
  EXPECT_THROW((void)reference_tier_from_name("quad"), std::invalid_argument);
  EXPECT_THROW((void)reference_tier_from_name(""), std::invalid_argument);
}

}  // namespace
}  // namespace mfla

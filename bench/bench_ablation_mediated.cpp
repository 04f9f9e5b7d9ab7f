// Ablation A4: why might posits underperform so dramatically at 32/64 bits
// in the paper, even on graph Laplacians whose entries all sit near one?
//
// Two candidate mechanisms are tested on the same graph corpus:
//
//  (1) Reflector formulation. The restart QR's Householder vectors can be
//      formed the LAPACK dlarfg way (tau in [1,2], all intermediates near
//      one) or the textbook way (beta = 2 v0^2/(sigma + v0^2), which forms
//      the *square of a small scale*). Tapered formats keep very few
//      fraction bits at 2^-50-ish magnitudes, so the textbook variant
//      destroys the orthogonality of the restart basis in posit32/64 while
//      leaving float32/64 nearly untouched — exactly the kind of silent,
//      format-dependent failure the paper observes for posits.
//
//  (2) Double-mediated arithmetic: every op computed by converting to
//      float64 and re-rounding (a common shortcut in posit software
//      stacks). This caps posit64's effective precision at 53 bits.
#include <cstdio>

#include "api/api.hpp"
#include "bench_scale.hpp"

namespace mfla {

/// Posit whose arithmetic is mediated through double (decode -> op in
/// float64 -> re-encode): the "software shortcut" implementation.
template <int N>
struct MediatedPosit {
  Posit<N> v;
  MediatedPosit() = default;
  MediatedPosit(double d) : v(d) {}
  MediatedPosit(int i) : v(i) {}
  explicit MediatedPosit(Posit<N> p) : v(p) {}
  explicit operator double() const { return v.to_double(); }

  friend MediatedPosit operator+(MediatedPosit a, MediatedPosit b) {
    return MediatedPosit(a.v.to_double() + b.v.to_double());
  }
  friend MediatedPosit operator-(MediatedPosit a, MediatedPosit b) {
    return MediatedPosit(a.v.to_double() - b.v.to_double());
  }
  friend MediatedPosit operator*(MediatedPosit a, MediatedPosit b) {
    return MediatedPosit(a.v.to_double() * b.v.to_double());
  }
  friend MediatedPosit operator/(MediatedPosit a, MediatedPosit b) {
    return MediatedPosit(a.v.to_double() / b.v.to_double());
  }
  friend MediatedPosit operator-(MediatedPosit a) { return MediatedPosit(-a.v); }
  MediatedPosit& operator+=(MediatedPosit o) { return *this = *this + o; }
  MediatedPosit& operator-=(MediatedPosit o) { return *this = *this - o; }
  MediatedPosit& operator*=(MediatedPosit o) { return *this = *this * o; }
  MediatedPosit& operator/=(MediatedPosit o) { return *this = *this / o; }
  friend bool operator==(MediatedPosit a, MediatedPosit b) { return a.v == b.v; }
  friend bool operator!=(MediatedPosit a, MediatedPosit b) { return a.v != b.v; }
  friend bool operator<(MediatedPosit a, MediatedPosit b) { return a.v < b.v; }
  friend bool operator>(MediatedPosit a, MediatedPosit b) { return a.v > b.v; }
  friend bool operator<=(MediatedPosit a, MediatedPosit b) { return a.v <= b.v; }
  friend bool operator>=(MediatedPosit a, MediatedPosit b) { return a.v >= b.v; }
  friend MediatedPosit sqrt(MediatedPosit a) {
    return MediatedPosit(std::sqrt(a.v.to_double()));
  }
  friend MediatedPosit abs(MediatedPosit a) { return MediatedPosit(abs(a.v)); }
  friend bool is_number(MediatedPosit a) { return !a.v.is_nar(); }
};

template <int N>
struct NumTraits<MediatedPosit<N>> {
  using T = MediatedPosit<N>;
  static constexpr int bits = N;
  static constexpr bool tapered = true;
  static std::string name() { return "posit" + std::to_string(N) + "~f64"; }
  static constexpr double epsilon() noexcept { return NumTraits<Posit<N>>::epsilon(); }
  static constexpr double default_tolerance() noexcept {
    return NumTraits<Posit<N>>::default_tolerance();
  }
  static double to_double(T x) noexcept { return x.v.to_double(); }
  static T from_double(double x) noexcept { return T(x); }
};

}  // namespace mfla

namespace {

using namespace mfla;

struct Row {
  std::string label;
  std::vector<double> eig_log10;
  std::size_t omega = 0;
  std::size_t sigma = 0;
};

void print_rows(const char* title, const std::vector<Row>& rows) {
  std::printf("-- %s --\n", title);
  std::printf("%-22s %8s %8s %8s %6s %6s\n", "configuration", "p25", "median", "p75", "omega",
              "sigma");
  for (const auto& r : rows) {
    auto sorted = r.eig_log10;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&sorted](double p) {
      if (sorted.empty()) return std::nan("");
      return sorted[static_cast<std::size_t>(p * (static_cast<double>(sorted.size()) - 1) + 0.5)];
    };
    std::printf("%-22s %8.2f %8.2f %8.2f %6zu %6zu\n", r.label.c_str(), pct(0.25), pct(0.5),
                pct(0.75), r.omega, r.sigma);
  }
  std::printf("\n");
}

template <typename T>
Row run_config(const std::string& label, const std::vector<TestMatrix>& corpus,
               ReflectorStyle style) {
  ExperimentConfig cfg;
  Row row;
  row.label = label;
  for (const auto& tm : corpus) {
    Rng rng(tm.name, cfg.seed);
    const auto start = rng.unit_vector(tm.n());
    const auto ref = compute_reference(tm, cfg, start);
    if (!ref.ok) continue;
    // Same run as the main pipeline (run_format<T>, core/experiment.hpp):
    // its ∞σ pre-check and solver options, plus a configurable reflector.
    if (matrix_exceeds_range<T>(tm.matrix)) {
      ++row.sigma;
      continue;
    }
    const CsrMatrix<T> at = tm.matrix.convert<T>();
    PartialSchurOptions opts;
    opts.nev = cfg.nev + cfg.buffer;
    opts.which = cfg.which;
    opts.tolerance = NumTraits<T>::default_tolerance();
    opts.max_restarts = cfg.max_restarts;
    opts.start_vector = &start;
    opts.seed = fnv1a(tm.name) ^ 0x517e;
    opts.reflector_style = style;
    const auto r = partialschur<T>(at, opts);
    if (!r.converged) {
      ++row.omega;
      continue;
    }
    DenseMatrix<double> vectors(tm.n(), r.q.cols());
    for (std::size_t j = 0; j < r.q.cols(); ++j)
      for (std::size_t i = 0; i < tm.n(); ++i)
        vectors(i, j) = NumTraits<T>::to_double(r.q(i, j));
    const auto match = match_eigenvectors(ref.vectors, vectors);
    const auto values = apply_match(std::vector<double>(r.eig_re.begin(), r.eig_re.end()), match);
    const auto err = eigenvalue_errors(ref.values, values, cfg.nev);
    if (std::isfinite(err.relative)) {
      row.eig_log10.push_back(std::log10(std::max(err.relative, 1e-40)));
    } else {
      ++row.omega;
    }
  }
  return row;
}

}  // namespace

int main() {
  using benchtool::scaled;
  GraphCorpusOptions gopts;
  gopts.counts = {scaled(10), scaled(8), scaled(8), 0};
  gopts.max_n = 220;
  const auto corpus = build_graph_corpus(gopts);
  std::printf("=== Ablation A4: posit-hostile implementation choices (%zu graphs) ===\n\n",
              corpus.size());

  std::vector<Row> rows32;
  rows32.push_back(run_config<float>("float32 lapack", corpus, ReflectorStyle::lapack));
  rows32.push_back(run_config<float>("float32 textbook", corpus, ReflectorStyle::textbook));
  rows32.push_back(run_config<Posit32>("posit32 lapack", corpus, ReflectorStyle::lapack));
  rows32.push_back(run_config<Posit32>("posit32 textbook", corpus, ReflectorStyle::textbook));
  rows32.push_back(run_config<Takum32>("takum32 lapack", corpus, ReflectorStyle::lapack));
  rows32.push_back(run_config<Takum32>("takum32 textbook", corpus, ReflectorStyle::textbook));
  print_rows("32-bit: reflector formulation (log10 eigenvalue rel. error)", rows32);

  std::vector<Row> rows64;
  rows64.push_back(run_config<double>("float64 lapack", corpus, ReflectorStyle::lapack));
  rows64.push_back(run_config<Posit64>("posit64 lapack", corpus, ReflectorStyle::lapack));
  rows64.push_back(run_config<Posit64>("posit64 textbook", corpus, ReflectorStyle::textbook));
  rows64.push_back(
      run_config<MediatedPosit<64>>("posit64~f64 lapack", corpus, ReflectorStyle::lapack));
  rows64.push_back(run_config<Takum64>("takum64 lapack", corpus, ReflectorStyle::lapack));
  print_rows("64-bit: reflector formulation + double-mediated ops", rows64);

  std::printf(
      "Reading: 'textbook' squares a small scale inside the restart QR; exact\n"
      "posit arithmetic loses orders of magnitude there while IEEE barely moves —\n"
      "a concrete mechanism consistent with the paper's posit32/64 anomaly.\n"
      "Double-mediated posit64 caps at float64 accuracy (53-bit significand).\n");
  return 0;
}

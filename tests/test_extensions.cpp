// Tests for raw-results persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/distribution.hpp"
#include "core/results_io.hpp"

namespace mfla {
namespace {

// ---- Results persistence ---------------------------------------------------------

std::vector<MatrixResult> sample_results() {
  std::vector<MatrixResult> rs(2);
  rs[0].name = "m1";
  rs[0].klass = "social";
  rs[0].category = "soc";
  rs[0].n = 100;
  rs[0].nnz = 500;
  rs[0].reference_ok = true;
  FormatRun a;
  a.format = FormatId::float32;
  a.outcome = RunOutcome::ok;
  a.eigenvalue_error = {1e-7, 2e-8};
  a.eigenvector_error = {1e-4, 5e-5};
  a.mean_similarity = 0.999;
  a.nconverged = 12;
  a.restarts = 7;
  a.matvecs = 123;
  rs[0].runs.push_back(a);
  FormatRun b;
  b.format = FormatId::takum16;
  b.outcome = RunOutcome::no_convergence;
  b.restarts = 60;
  rs[0].runs.push_back(b);
  rs[1].name = "m2";
  rs[1].klass = "general";
  rs[1].category = "band";
  rs[1].n = 40;
  rs[1].nnz = 200;
  rs[1].reference_ok = false;
  return rs;
}

TEST(ResultsIo, WriteReadRoundTrip) {
  const auto rs = sample_results();
  const std::string path = "test_out/results_roundtrip.csv";
  write_results_csv(path, rs);
  const auto back = read_results_csv(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "m1");
  EXPECT_EQ(back[0].klass, "social");
  EXPECT_EQ(back[0].n, 100u);
  EXPECT_TRUE(back[0].reference_ok);
  ASSERT_EQ(back[0].runs.size(), 2u);
  EXPECT_EQ(back[0].runs[0].format, FormatId::float32);
  EXPECT_EQ(back[0].runs[0].outcome, RunOutcome::ok);
  EXPECT_DOUBLE_EQ(back[0].runs[0].eigenvalue_error.relative, 2e-8);
  EXPECT_DOUBLE_EQ(back[0].runs[0].mean_similarity, 0.999);
  EXPECT_EQ(back[0].runs[0].matvecs, 123u);
  EXPECT_EQ(back[0].runs[1].outcome, RunOutcome::no_convergence);
  EXPECT_FALSE(back[1].reference_ok);
  std::remove(path.c_str());
}

TEST(ResultsIo, OutcomeNames) {
  EXPECT_STREQ(outcome_name(RunOutcome::ok), "ok");
  EXPECT_STREQ(outcome_name(RunOutcome::no_convergence), "omega");
  EXPECT_STREQ(outcome_name(RunOutcome::range_exceeded), "sigma");
  EXPECT_EQ(outcome_from_name("sigma"), RunOutcome::range_exceeded);
  EXPECT_THROW((void)outcome_from_name("bogus"), std::invalid_argument);
}

TEST(ResultsIo, DistributionsSurviveRoundTrip) {
  const auto rs = sample_results();
  const std::string path = "test_out/results_dist.csv";
  write_results_csv(path, rs);
  const auto back = read_results_csv(path);
  const auto d_orig = build_distribution(rs, FormatId::float32, false);
  const auto d_back = build_distribution(back, FormatId::float32, false);
  EXPECT_EQ(d_orig.n_total, d_back.n_total);
  EXPECT_EQ(d_orig.sorted_log10, d_back.sorted_log10);
  std::remove(path.c_str());
}

TEST(ResultsIo, MissingFileThrows) {
  EXPECT_THROW(read_results_csv("definitely/not/here.csv"), std::runtime_error);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ResultsIo, NamesWithCommasQuotesAndNewlinesRoundTrip) {
  // Matrix names come from user file paths, so they may hold any of the
  // CSV metacharacters; the row must keep its 15 columns regardless.
  auto rs = sample_results();
  rs[0].name = "data/a,b.mtx";
  rs[0].category = "say \"hi\"";
  rs[1].name = "two\nlines.mtx";
  const std::string path = "test_out/results_quoted.csv";
  write_results_csv(path, rs);
  const std::string bytes = slurp(path);
  EXPECT_NE(bytes.find("\"data/a,b.mtx\",social,\"say \"\"hi\"\"\",100,500,float32,ok,"),
            std::string::npos)
      << bytes;
  // Fields without metacharacters are written verbatim, unquoted.
  EXPECT_EQ(bytes.find("\"social\""), std::string::npos);

  const auto back = read_results_csv(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, rs[0].name);
  EXPECT_EQ(back[0].klass, rs[0].klass);
  EXPECT_EQ(back[0].category, rs[0].category);
  EXPECT_EQ(back[0].n, 100u);
  ASSERT_EQ(back[0].runs.size(), 2u);
  EXPECT_EQ(back[0].runs[0].matvecs, 123u);
  EXPECT_EQ(back[1].name, rs[1].name);
  EXPECT_FALSE(back[1].reference_ok);
  std::remove(path.c_str());
}

TEST(ResultsIo, MalformedRowErrorNamesItsLine) {
  const std::string path = "test_out/results_malformed.csv";
  const auto expect_error = [&](const std::string& body, const std::string& needle) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << "matrix,class,category,n,nnz,format,outcome,eig_abs,eig_rel,vec_abs,vec_rel,"
             "similarity,nconv,restarts,matvecs\n"
          << body;
    }
    try {
      (void)read_results_csv(path);
      ADD_FAILURE() << "no error for: " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  const std::string good = "m,social,soc,4,8,float32,omega,,,,,,1,2,3\n";
  // An unquoted comma in a name, as the writer produced before quoting.
  expect_error(good + "data/a,b.mtx,social,soc,4,8,float32,omega,,,,,,1,2,3\n",
               "line 3: expected 15 fields, found 16");
  expect_error(good + good + "m,social,soc,4,8,float32,omega,,,,,,x,2,3\n",
               "line 4: bad nconv 'x'");
  expect_error("\"open,social,soc,4,8,float32,omega,,,,,,1,2,3\n",
               "line 2: unterminated quoted field");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mfla

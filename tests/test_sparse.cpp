// Sparse substrate tests: COO assembly, CSR conversion and matvec,
// Matrix Market and edge-list IO.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arith/posit.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/edge_list.hpp"
#include "sparse/matrix_market.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

TEST(Coo, CompressSumsDuplicatesAndDropsZeros) {
  CooMatrix a(3, 3);
  a.add(0, 1, 1.5);
  a.add(0, 1, 2.5);
  a.add(1, 2, 3.0);
  a.add(2, 2, 1.0);
  a.add(2, 2, -1.0);  // cancels to zero
  a.compress();
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.triplets()[0].value, 4.0);
  EXPECT_EQ(a.triplets()[0].row, 0u);
  EXPECT_EQ(a.triplets()[0].col, 1u);
}

TEST(Coo, ShapeGrowsWithEntries) {
  CooMatrix a;
  a.add(5, 2, 1.0);
  EXPECT_EQ(a.rows(), 6u);
  EXPECT_EQ(a.cols(), 3u);
}

TEST(Coo, SymmetryCheck) {
  CooMatrix a(2, 2);
  a.add(0, 1, 2.0);
  a.add(1, 0, 2.0);
  EXPECT_TRUE(a.is_symmetric());
  CooMatrix b(2, 2);
  b.add(0, 1, 2.0);
  EXPECT_FALSE(b.is_symmetric());
  CooMatrix c(2, 3);
  EXPECT_FALSE(c.is_symmetric());
}

TEST(Csr, FromCooAndMatvec) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 1, -1.0);
  coo.add(2, 0, 4.0);
  const auto a = CsrMatrix<double>::from_coo(coo);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.nnz(), 4u);
  const double x[3] = {1.0, 2.0, 3.0};
  double y[3];
  a.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 0.0);
}

TEST(Csr, AtBinarySearchFindsEveryEntry) {
  // Row patterns chosen to exercise the binary search: a dense-ish row, a
  // single-entry row, an empty row, and a row ending at the last column.
  CooMatrix coo(4, 6);
  coo.add(0, 0, 1.0);   // first entry of row 0
  coo.add(0, 2, 2.0);   // middle
  coo.add(0, 5, 3.0);   // last entry of row 0 = last column
  coo.add(1, 3, 4.0);   // lone entry
  // row 2 empty
  coo.add(3, 1, 5.0);
  coo.add(3, 4, 6.0);
  const auto a = CsrMatrix<double>::from_coo(coo);

  // Every present entry is found (first, middle, last within a row).
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 5), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(a.at(3, 1), 5.0);
  EXPECT_DOUBLE_EQ(a.at(3, 4), 6.0);

  // Absent columns: below the first, between entries, above the last, and
  // every column of an empty row.
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.at(1, 5), 0.0);
  for (std::size_t j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(a.at(2, j), 0.0);
  EXPECT_DOUBLE_EQ(a.at(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.at(3, 5), 0.0);

  // Cross-check against the dense expansion on a random matrix.
  Rng rng(77);
  CooMatrix rnd(12, 12);
  for (int k = 0; k < 40; ++k) {
    rnd.add(static_cast<std::uint32_t>(rng.uniform_index(12)),
            static_cast<std::uint32_t>(rng.uniform_index(12)), rng.normal());
  }
  CooMatrix compressed = rnd;
  compressed.compress();
  const auto b = CsrMatrix<double>::from_coo(rnd);
  std::vector<double> dense(12 * 12, 0.0);
  for (const auto& t : compressed.triplets()) dense[t.row * 12 + t.col] = t.value;
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j) EXPECT_DOUBLE_EQ(b.at(i, j), dense[i * 12 + j]);
}

TEST(Csr, ConvertChangesFormatNotPattern) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0 / 3.0);
  coo.add(1, 1, 1e10);
  const auto a = CsrMatrix<double>::from_coo(coo);
  const auto p = a.convert<Posit16>();
  EXPECT_EQ(p.nnz(), a.nnz());
  EXPECT_NEAR(p.at(0, 0).to_double(), 1.0 / 3.0, 1e-4);
  // posit16 saturates at 2^56, so 1e10 survives (with rounding).
  EXPECT_GT(p.at(1, 1).to_double(), 5e9);
}

TEST(Csr, MutableValuesReachMatvec) {
  // An edit through mutable_values() must reach the next matvec: nothing
  // derived from the old values may survive it.
  CooMatrix coo(40, 40);
  Rng rng("mutable_values", 0);
  for (std::uint32_t r = 0; r < 40; ++r)
    for (std::uint32_t c = 0; c < 40; ++c)
      if (r == c || rng.uniform() < 0.08) coo.add(r, c, rng.normal());
  auto a = CsrMatrix<double>::from_coo(coo).convert<Posit8>();

  std::vector<Posit8> x;
  for (std::size_t i = 0; i < a.cols(); ++i)
    x.push_back(NumTraits<Posit8>::from_double(i == a.col_idx()[0] ? 1.0 : rng.normal()));
  std::vector<Posit8> before(a.rows());
  a.matvec(x.data(), before.data());

  a.mutable_values()[0] = NumTraits<Posit8>::from_double(a.values()[0].to_double() + 7.0);

  // Bit-compare against the exact engine on the edited arrays; row 0 moved.
  std::vector<Posit8> y(a.rows()), want(a.rows());
  a.matvec(x.data(), y.data());
  kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                want.data());
  for (std::size_t i = 0; i < a.rows(); ++i)
    ASSERT_EQ(y[i].bits(), want[i].bits());
  EXPECT_NE(y[0].bits(), before[0].bits());
}

TEST(Csr, MatrixExceedsRange) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1e8);  // above float16 max (65504)
  const auto a = CsrMatrix<double>::from_coo(coo);
  EXPECT_TRUE(matrix_exceeds_range<Float16>(a));
  EXPECT_FALSE(matrix_exceeds_range<float>(a));
  EXPECT_FALSE(matrix_exceeds_range<Posit16>(a));  // posits saturate
}

// ---- Matrix Market ------------------------------------------------------------

TEST(MatrixMarket, CoordinateGeneral) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment line\n"
      "\n"
      "3 3 2\n"
      "1 2 4.5\n"
      "3 1 -1\n");
  MatrixMarketHeader h;
  const CooMatrix m = read_matrix_market(in, &h);
  EXPECT_TRUE(h.coordinate);
  EXPECT_EQ(h.symmetry, "general");
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.triplets()[0].value, 4.5);
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "2 1 5.0\n");
  const CooMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 3u);  // (0,0), (1,0), (0,1)
  EXPECT_TRUE(m.is_symmetric());
}

TEST(MatrixMarket, SkewSymmetricExpansion) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const CooMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 2u);
  CooMatrix t = m.transposed();
  t.compress();
  EXPECT_DOUBLE_EQ(m.triplets()[0].value, -t.triplets()[0].value);
}

TEST(MatrixMarket, PatternField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const CooMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.triplets()[0].value, 1.0);
}

TEST(MatrixMarket, IntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "1 2 7\n");
  const CooMatrix m = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(m.triplets()[0].value, 7.0);
}

TEST(MatrixMarket, ArrayFormat) {
  std::istringstream in(
      "%%MatrixMarket matrix array real general\n"
      "2 2\n"
      "1\n2\n3\n4\n");
  const CooMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 4u);
  // Column-major: (0,0)=1 (1,0)=2 (0,1)=3 (1,1)=4.
  const auto a = CsrMatrix<double>::from_coo(m);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 2.0);
}

TEST(MatrixMarket, ArraySymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix array real symmetric\n"
      "2 2\n"
      "1\n2\n5\n");  // lower triangle by columns: a00, a10, a11
  const CooMatrix m = read_matrix_market(in);
  const auto a = CsrMatrix<double>::from_coo(m);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 5.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::istringstream in1("not a banner\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(in1), std::runtime_error);
  std::istringstream in2("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n");
  EXPECT_THROW(read_matrix_market(in2), std::runtime_error);  // out of bounds
  std::istringstream in3("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n");
  EXPECT_THROW(read_matrix_market(in3), std::runtime_error);  // truncated
  std::istringstream in4("%%MatrixMarket tensor coordinate real general\n");
  EXPECT_THROW(read_matrix_market(in4), std::runtime_error);  // not a matrix
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  Rng rng(55);
  CooMatrix m(10, 8);
  for (int k = 0; k < 30; ++k) {
    m.add(static_cast<std::uint32_t>(rng.uniform_index(10)),
          static_cast<std::uint32_t>(rng.uniform_index(8)), rng.normal());
  }
  m.compress();
  std::ostringstream out;
  write_matrix_market(out, m);
  std::istringstream in(out.str());
  const CooMatrix back = read_matrix_market(in);
  ASSERT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.rows(), m.rows());
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    EXPECT_EQ(back.triplets()[i].row, m.triplets()[i].row);
    EXPECT_EQ(back.triplets()[i].col, m.triplets()[i].col);
    EXPECT_DOUBLE_EQ(back.triplets()[i].value, m.triplets()[i].value);
  }
}

// ---- Edge lists ------------------------------------------------------------------

TEST(EdgeList, BasicParsing) {
  std::istringstream in(
      "% a comment\n"
      "# another comment\n"
      "1 2\n"
      "2 3\n"
      "3 1\n");
  const CooMatrix m = read_edge_list(in);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.nnz(), 3u);  // directed triangle
}

TEST(EdgeList, WeightsAndSeparators) {
  std::istringstream in("1,2,2.5\n2;3;0.5\n1\t3\t1.0\n");
  const CooMatrix m = read_edge_list(in);
  EXPECT_EQ(m.nnz(), 3u);
  double total = 0;
  for (const auto& t : m.triplets()) total += t.value;
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(EdgeList, IgnoresWeightsWhenAsked) {
  std::istringstream in("1 2 99.0\n");
  EdgeListOptions opts;
  opts.use_weights = false;
  const CooMatrix m = read_edge_list(in, opts);
  EXPECT_DOUBLE_EQ(m.triplets()[0].value, 1.0);
}

TEST(EdgeList, NonContiguousIdsCompacted) {
  std::istringstream in("100 200\n200 4000\n");
  const CooMatrix m = read_edge_list(in);
  EXPECT_EQ(m.rows(), 3u);  // three distinct vertices
  EXPECT_EQ(m.cols(), 3u);
}

TEST(EdgeList, ZeroBasedIdsWork) {
  std::istringstream in("0 1\n1 2\n");
  const CooMatrix m = read_edge_list(in);
  EXPECT_EQ(m.rows(), 3u);
}

TEST(EdgeList, BadLineThrows) {
  std::istringstream in("1 banana\n");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

/// The runtime_error message of read_edge_list over `text`, or "" if it
/// parsed.
std::string edge_list_error(const std::string& text, const EdgeListOptions& opts = {}) {
  std::istringstream in(text);
  try {
    (void)read_edge_list(in, opts);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(EdgeList, UnparsableWeightThrowsWithLine) {
  EXPECT_EQ(edge_list_error("1 2 abc\n"), "edge list: line 1: bad weight in '1 2 abc'");
  // Comments and blank lines still count toward the line number.
  const std::string err = edge_list_error("% header\n\n1 2 0.5\n2 3 1.5x\n");
  EXPECT_NE(err.find("line 4:"), std::string::npos) << err;
  EXPECT_NE(err.find("bad weight"), std::string::npos) << err;
  EXPECT_NE(edge_list_error("1,2,nan?\n").find("line 1:"), std::string::npos);
}

TEST(EdgeList, WeightColumnIgnoredWhenWeightsOff) {
  EdgeListOptions opts;
  opts.use_weights = false;
  EXPECT_EQ(edge_list_error("1 2 abc\n", opts), "");
}

TEST(EdgeList, ExtraColumnsAfterWeightIgnored) {
  // Network Repository files may carry a timestamp after the weight.
  std::istringstream in("1 2 2.5 1700000000\n2 3 0.5 1700000001\n");
  const CooMatrix m = read_edge_list(in);
  double total = 0;
  for (const auto& t : m.triplets()) total += t.value;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(EdgeList, BadIdsCarryLineNumber) {
  EXPECT_EQ(edge_list_error("1 2\n3 banana\n"), "edge list: line 2: bad line '3 banana'");
  EXPECT_EQ(edge_list_error("# c\n7\n"), "edge list: line 2: bad line '7'");
}

}  // namespace
}  // namespace mfla

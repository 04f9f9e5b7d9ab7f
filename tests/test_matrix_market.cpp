// Matrix Market reader edge cases: header variants, comment handling,
// 1-based index validation, and malformed-file error paths.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/matrix_market.hpp"

namespace mfla {
namespace {

// ---- header variants ---------------------------------------------------------

TEST(MatrixMarketHeaderTest, BannerIsCaseInsensitive) {
  std::istringstream in(
      "%%MATRIXMARKET MATRIX COORDINATE REAL SYMMETRIC\n"
      "2 2 1\n"
      "2 1 3.0\n");
  MatrixMarketHeader h;
  const CooMatrix m = read_matrix_market(in, &h);
  EXPECT_TRUE(h.coordinate);
  EXPECT_EQ(h.field, "real");
  EXPECT_EQ(h.symmetry, "symmetric");
  EXPECT_EQ(m.nnz(), 2u);  // off-diagonal mirrored
}

TEST(MatrixMarketHeaderTest, MissingSymmetryDefaultsToGeneral) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real\n"
      "2 2 1\n"
      "2 1 3.0\n");
  MatrixMarketHeader h;
  const CooMatrix m = read_matrix_market(in, &h);
  EXPECT_EQ(h.symmetry, "general");
  EXPECT_EQ(m.nnz(), 1u);  // no mirroring
}

TEST(MatrixMarketHeaderTest, SymmetricPatternExpandsWithUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  MatrixMarketHeader h;
  const CooMatrix m = read_matrix_market(in, &h);
  EXPECT_EQ(h.field, "pattern");
  EXPECT_EQ(h.symmetry, "symmetric");
  EXPECT_EQ(m.nnz(), 3u);  // (1,0), (0,1), (2,2)
  for (const auto& t : m.triplets()) EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_TRUE(m.is_symmetric());
}

TEST(MatrixMarketHeaderTest, SkewSymmetricDiagonalNotMirrored) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 2\n"
      "1 1 4.0\n"
      "2 1 3.0\n");
  const CooMatrix m = read_matrix_market(in);
  // Diagonal entry kept as-is; only the off-diagonal is mirrored negated.
  const auto a = CsrMatrix<double>::from_coo(m);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -3.0);
}

TEST(MatrixMarketHeaderTest, HeaderOutputIsOptional) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1\n"
      "1 1 2.0\n");
  EXPECT_NO_THROW({ (void)read_matrix_market(in, nullptr); });
}

TEST(MatrixMarketHeaderTest, ArraySkewSymmetricStoresStrictLowerTriangle) {
  // Skew-symmetric array data omits the (implicitly zero) diagonal:
  // a 3x3 file has exactly 3 values — a10, a20, a21.
  std::istringstream in(
      "%%MatrixMarket matrix array real skew-symmetric\n"
      "3 3\n"
      "2\n3\n4\n");
  const CooMatrix m = read_matrix_market(in);
  const auto a = CsrMatrix<double>::from_coo(m);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -4.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 0.0);
  EXPECT_EQ(m.nnz(), 6u);
}

// ---- comments and blank lines ------------------------------------------------

TEST(MatrixMarketComments, CommentsAndBlanksSkippedEverywhere) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% author: somebody\n"
      "# hash comments too\n"
      "\n"
      "   \n"
      "2 2 2\n"
      "%% between entries\n"
      "1 1 1.0\n"
      "\n"
      "   % indented comment\n"
      "2 2 2.0\n");
  const CooMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(MatrixMarketComments, CommentOnlyBodyIsMissingSizeLine) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% nothing but comments\n"
      "% follows the banner\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

// ---- 1-based index validation ------------------------------------------------

TEST(MatrixMarketIndices, ZeroIndexRejected) {
  std::istringstream r0(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "0 1 1.0\n");
  EXPECT_THROW(read_matrix_market(r0), std::runtime_error);
  std::istringstream c0(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 0 1.0\n");
  EXPECT_THROW(read_matrix_market(c0), std::runtime_error);
}

TEST(MatrixMarketIndices, NegativeIndexRejected) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "-1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketIndices, OutOfBoundsIndexRejected) {
  std::istringstream row_oob(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(row_oob), std::runtime_error);
  std::istringstream col_oob(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3 1\n"
      "1 4 1.0\n");
  EXPECT_THROW(read_matrix_market(col_oob), std::runtime_error);
}

TEST(MatrixMarketIndices, MaxValidIndicesAccepted) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 4 1\n"
      "3 4 9.0\n");
  const CooMatrix m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.triplets()[0].row, 2u);
  EXPECT_EQ(m.triplets()[0].col, 3u);
}

// ---- malformed files ---------------------------------------------------------

TEST(MatrixMarketMalformed, EmptyInput) {
  std::istringstream in("");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketMalformed, UnsupportedHeaderCombinations) {
  std::istringstream complex_field(
      "%%MatrixMarket matrix coordinate complex general\n"
      "1 1 1\n"
      "1 1 1.0 0.0\n");
  EXPECT_THROW(read_matrix_market(complex_field), std::runtime_error);
  std::istringstream hermitian(
      "%%MatrixMarket matrix coordinate real hermitian\n"
      "1 1 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(hermitian), std::runtime_error);
  std::istringstream bad_format(
      "%%MatrixMarket matrix ellpack real general\n"
      "1 1 1\n");
  EXPECT_THROW(read_matrix_market(bad_format), std::runtime_error);
  std::istringstream array_pattern(
      "%%MatrixMarket matrix array pattern general\n"
      "1 1\n");
  EXPECT_THROW(read_matrix_market(array_pattern), std::runtime_error);
}

TEST(MatrixMarketMalformed, BadSizeLine) {
  std::istringstream nonnumeric(
      "%%MatrixMarket matrix coordinate real general\n"
      "two by two\n");
  EXPECT_THROW(read_matrix_market(nonnumeric), std::runtime_error);
  std::istringstream negative(
      "%%MatrixMarket matrix coordinate real general\n"
      "-2 2 1\n");
  EXPECT_THROW(read_matrix_market(negative), std::runtime_error);
}

/// The message of the runtime_error `text` raises when read.
std::string read_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_matrix_market(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(MatrixMarketMalformed, HugeEntryCountRejectedBeforeAllocating) {
  const std::string msg = read_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 4000000000000000000\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exceeds rows*cols"), std::string::npos) << msg;
  // One more than rows*cols is already too many.
  EXPECT_NE(read_error("%%MatrixMarket matrix coordinate real general\n"
                       "2 3 7\n")
                .find("exceeds rows*cols"),
            std::string::npos);
}

TEST(MatrixMarketMalformed, DimensionsAbove32BitsRejected) {
  // Row/column indices are stored as uint32_t; a larger dimension would
  // silently truncate them.
  const std::string rows = read_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "4294967296 2 1\n"
      "4294967296 1 1.0\n");
  EXPECT_NE(rows.find("line 3"), std::string::npos) << rows;
  EXPECT_NE(rows.find("2^32-1"), std::string::npos) << rows;
  const std::string cols = read_error(
      "%%MatrixMarket matrix array real general\n"
      "1 5000000000\n");
  EXPECT_NE(cols.find("line 2"), std::string::npos) << cols;
  EXPECT_NE(cols.find("2^32-1"), std::string::npos) << cols;
}

TEST(MatrixMarketMalformed, LargeDeclaredCountWithShortBodyFailsCleanly) {
  // A plausible but unfulfilled entry count must not be trusted for the
  // allocation: the reader reports the truncation, not bad_alloc.
  const std::string msg = read_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "4294967295 4294967295 1000000000000\n"
      "1 1 1.0\n");
  EXPECT_NE(msg.find("unexpected EOF"), std::string::npos) << msg;
}

TEST(MatrixMarketMalformed, NonNumericEntryValue) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 banana\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketMalformed, TruncatedCoordinateAndArrayData) {
  std::istringstream coord(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(coord), std::runtime_error);
  std::istringstream array(
      "%%MatrixMarket matrix array real general\n"
      "2 2\n"
      "1.0\n2.0\n3.0\n");
  EXPECT_THROW(read_matrix_market(array), std::runtime_error);
}

TEST(MatrixMarketMalformed, ErrorMessagePointsAtOffendingLine) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "2 9 1.0\n");  // bad entry on line 5
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos) << e.what();
  }
}

TEST(MatrixMarketMalformed, MissingFileHasPathInMessage) {
  try {
    (void)read_matrix_market_file("/nonexistent/path/to/matrix.mtx");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/path/to/matrix.mtx"), std::string::npos);
  }
}

TEST(MatrixMarketMalformed, ZeroEntryCoordinateMatrixIsValid) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "4 5 0\n");
  const CooMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.nnz(), 0u);
}

}  // namespace
}  // namespace mfla

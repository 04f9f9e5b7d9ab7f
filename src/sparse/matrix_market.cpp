#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mfla {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Line-counting reader skipping comments and blanks, so errors can point
/// at the offending 1-based line of the input.
struct LineReader {
  std::istream& in;
  long lineno = 0;

  /// Next non-comment, non-blank line; returns false on EOF.
  bool next_data_line(std::string& line) {
    while (std::getline(in, line)) {
      ++lineno;
      std::size_t i = 0;
      while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      if (i == line.size()) continue;
      if (line[i] == '%' || line[i] == '#') continue;
      return true;
    }
    return false;
  }
};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("matrix market: " + what);
}

[[noreturn]] void fail_at(long lineno, const std::string& what) {
  fail("line " + std::to_string(lineno) + ": " + what);
}

/// Triplet indices are uint32_t, so neither dimension may exceed 2^32-1.
constexpr long long kMaxDim = 0xffffffffLL;

/// Up-front reservation cap: a header's entry count is only a claim, so
/// storage beyond this grows as entries are actually read.
constexpr std::size_t kMaxReserve = std::size_t{1} << 20;

void check_dims(long lineno, long long rows, long long cols) {
  if (rows > kMaxDim || cols > kMaxDim) fail_at(lineno, "dimension exceeds 2^32-1");
}

}  // namespace

CooMatrix read_matrix_market(std::istream& in, MatrixMarketHeader* header) {
  LineReader reader{in};
  std::string line;
  if (!std::getline(in, line)) fail("empty input");
  reader.lineno = 1;

  MatrixMarketHeader h;
  {
    std::istringstream banner(lower(line));
    std::string tag, object, format;
    banner >> tag >> object >> format >> h.field >> h.symmetry;
    if (tag != "%%matrixmarket") fail("missing %%MatrixMarket banner");
    if (object != "matrix") fail("unsupported object '" + object + "'");
    if (format == "coordinate") {
      h.coordinate = true;
    } else if (format == "array") {
      h.coordinate = false;
    } else {
      fail("unsupported format '" + format + "'");
    }
    if (h.field != "real" && h.field != "integer" && h.field != "pattern") {
      fail("unsupported field '" + h.field + "'");
    }
    if (h.symmetry.empty()) h.symmetry = "general";
    if (h.symmetry != "general" && h.symmetry != "symmetric" && h.symmetry != "skew-symmetric") {
      fail("unsupported symmetry '" + h.symmetry + "'");
    }
    if (!h.coordinate && h.field == "pattern") fail("array format cannot be pattern");
  }
  if (header != nullptr) *header = h;

  if (!reader.next_data_line(line)) fail_at(reader.lineno, "missing size line");
  std::istringstream size_line(line);

  CooMatrix coo;
  if (h.coordinate) {
    long long rows = 0, cols = 0, entries = 0;
    size_line >> rows >> cols >> entries;
    if (size_line.fail() || rows < 0 || cols < 0 || entries < 0) {
      fail_at(reader.lineno, "bad size line");
    }
    check_dims(reader.lineno, rows, cols);
    // Both dimensions fit 32 bits, so their product cannot overflow.
    if (static_cast<unsigned long long>(entries) >
        static_cast<unsigned long long>(rows) * static_cast<unsigned long long>(cols)) {
      fail_at(reader.lineno, "entry count exceeds rows*cols");
    }
    coo.set_shape(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    const std::size_t stored =
        static_cast<std::size_t>(entries) * (h.symmetry == "general" ? 1 : 2);
    coo.reserve(std::min(stored, kMaxReserve));
    for (long long k = 0; k < entries; ++k) {
      if (!reader.next_data_line(line)) fail_at(reader.lineno, "unexpected EOF in entries");
      std::istringstream e(line);
      long long r = 0, c = 0;
      double v = 1.0;
      e >> r >> c;
      if (h.field != "pattern") e >> v;
      if (e.fail() || r < 1 || c < 1 || r > rows || c > cols) {
        fail_at(reader.lineno, "bad entry '" + line + "'");
      }
      const auto ri = static_cast<std::uint32_t>(r - 1);
      const auto ci = static_cast<std::uint32_t>(c - 1);
      coo.add(ri, ci, v);
      if (ri != ci) {
        if (h.symmetry == "symmetric") coo.add(ci, ri, v);
        if (h.symmetry == "skew-symmetric") coo.add(ci, ri, -v);
      }
    }
  } else {
    long long rows = 0, cols = 0;
    size_line >> rows >> cols;
    if (size_line.fail() || rows < 0 || cols < 0) fail_at(reader.lineno, "bad size line");
    check_dims(reader.lineno, rows, cols);
    coo.set_shape(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    // Array data is column-major; symmetric storage lists the lower
    // triangle, skew-symmetric the *strictly* lower triangle (the diagonal
    // is implicitly zero).
    for (long long j = 0; j < cols; ++j) {
      const long long i0 = (h.symmetry == "general")        ? 0
                           : (h.symmetry == "skew-symmetric") ? j + 1
                                                              : j;
      for (long long i = i0; i < rows; ++i) {
        if (!reader.next_data_line(line)) {
          fail_at(reader.lineno, "unexpected EOF in array data");
        }
        std::istringstream e(line);
        double v = 0.0;
        e >> v;
        if (e.fail()) fail_at(reader.lineno, "bad array value '" + line + "'");
        const auto ri = static_cast<std::uint32_t>(i);
        const auto ci = static_cast<std::uint32_t>(j);
        coo.add(ri, ci, v);
        if (i != j && h.symmetry == "symmetric") coo.add(ci, ri, v);
        if (i != j && h.symmetry == "skew-symmetric") coo.add(ci, ri, -v);
      }
    }
  }
  coo.compress();
  return coo;
}

CooMatrix read_matrix_market_file(const std::string& path, MatrixMarketHeader* header) {
  std::ifstream in(path);
  if (!in) fail("cannot open '" + path + "'");
  return read_matrix_market(in, header);
}

void write_matrix_market(std::ostream& out, const CooMatrix& m) {
  CooMatrix c = m;
  c.compress();
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << c.rows() << ' ' << c.cols() << ' ' << c.nnz() << '\n';
  out.precision(17);
  for (const auto& t : c.triplets()) {
    out << (t.row + 1) << ' ' << (t.col + 1) << ' ' << t.value << '\n';
  }
}

}  // namespace mfla

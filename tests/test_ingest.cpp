// Ingest bytes, pinned: the CSR arrays (row_ptr, col_idx, value bits) every
// front end builds from the built-in corpora, the solver_large_lut8 graphs
// and user files. The digests come from the all-pairs random_geometric and
// the sort-and-sum pipeline stages, so they hold the cell grid and the
// row-merging stages to those bytes; a change here changes the matrices
// every sweep measures.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "datasets/corpus.hpp"
#include "datasets/general_corpus.hpp"
#include "datasets/graph_corpus.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

#ifndef MFLA_TEST_DATA_DIR
#error "MFLA_TEST_DATA_DIR must name tests/data"
#endif

namespace mfla {
namespace {

void hash_csr(Hasher& h, const CsrMatrix<double>& m) {
  h.u64(m.rows()).u64(m.cols());
  h.span(m.row_ptr().data(), m.row_ptr().size());
  h.span(m.col_idx().data(), m.col_idx().size());
  h.span(m.values().data(), m.values().size());
}

std::string digest(const std::vector<TestMatrix>& corpus) {
  Hasher h;
  h.u64(corpus.size());
  for (const auto& t : corpus) {
    h.str(t.name).str(t.klass).str(t.category);
    hash_csr(h, t.matrix);
  }
  return h.finish().hex();
}

std::string digest(const CooMatrix& coo) {
  Hasher h;
  hash_csr(h, CsrMatrix<double>::from_coo(coo));
  return h.finish().hex();
}

/// e2ebench's solver_large_lut8 graph for `slot` (same generators, seeds
/// and sizes as its large_graph).
CooMatrix large_graph(std::size_t slot, std::uint32_t n) {
  Rng rng("solver_large_lut8/" + std::to_string(slot));
  switch (slot % 4) {
    case 0:
      return graph_laplacian_pipeline(watts_strogatz(n, 2, 0.1, rng));
    case 1:
      return graph_laplacian_pipeline(barabasi_albert(n, 2, rng));
    case 2: {
      const auto side = static_cast<std::uint32_t>(std::lround(std::sqrt(static_cast<double>(n))));
      return graph_laplacian_pipeline(grid_2d(side, side, 0.05, rng));
    }
    default:
      return graph_laplacian_pipeline(
          random_geometric(n, std::sqrt(4.0 / (3.141592653589793 * n)), rng));
  }
}

TEST(IngestDigests, GeneralCorpus) {
  GeneralCorpusOptions opts;
  opts.count = kDefaultCorpusCount;
  EXPECT_EQ(digest(build_general_corpus(opts)), "0f50912c59de3b2ecea0ed29010145f2");
  opts.count = 302;
  EXPECT_EQ(digest(build_general_corpus(opts)), "d42260e3e5b3496acecd2933bb7b3afd");
}

TEST(IngestDigests, GraphCorpus) {
  EXPECT_EQ(digest(build_graph_corpus(GraphCorpusOptions{})), "d0cf4ce428fc5d90c26c40d80b1c8bbe");
}

TEST(IngestDigests, SolverLargeGraphs) {
  const std::uint32_t sizes[] = {2400, 2800, 3200, 3600};
  Hasher h;
  for (std::size_t s = 0; s < 4; ++s) hash_csr(h, CsrMatrix<double>::from_coo(large_graph(s, sizes[s])));
  EXPECT_EQ(h.finish().hex(), "74a2d8b4475d7cf13972e069076de5db");
}

TEST(IngestDigests, UserFiles) {
  const std::string dir = MFLA_TEST_DATA_DIR;
  EXPECT_EQ(digest({make_test_matrix("e", "user", "user",
                                     read_matrix_file(dir + "/weighted_directed.edges"))}),
            "15490f18e3c5714833de9224d9a9b668");
  EXPECT_EQ(digest({make_test_matrix("m", "user", "user",
                                     read_matrix_file(dir + "/nonsymmetric.mtx"))}),
            "7f95a9d279a56a7487d4b92e04eb6a2c");
}

/// Triplets in shuffled order, with repeated positions: every stage must
/// still compress them first. At most two entries share an unordered
/// position {i, j} (and at most one a diagonal one), so every value is a
/// sum of at most two terms; a third would be summed in an order
/// std::sort leaves unspecified.
CooMatrix uncompressed_input() {
  Rng rng(0x1a9e57);
  CooMatrix raw(60, 64);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pos;
  for (std::uint32_t i = 0; i < 60; ++i) {
    pos.emplace_back(i, i);
    pos.emplace_back(i, (i * 7 + 3) % 64);  // (i, 7i+3): repeated below
    pos.emplace_back(i, (i * 7 + 3) % 64);
    if (i % 3 == 0) pos.emplace_back(i, 60 + i % 4);  // beyond the square block
  }
  for (std::size_t k = pos.size(); k > 1; --k) std::swap(pos[k - 1], pos[rng.uniform_index(k)]);
  for (const auto& [r, c] : pos) raw.add(r, c, rng.log_uniform(-3.0, 3.0));
  return raw;
}

TEST(IngestDigests, UncompressedInput) {
  const CooMatrix raw = uncompressed_input();
  ASSERT_FALSE(raw.is_symmetric());
  EXPECT_EQ(digest(raw), "4830b8d4141a8f89469e702fecb57f6f");
  EXPECT_EQ(digest(symmetrize_average(squarify(raw))), "29625c8aa4ab6520a903f7e630809dfd");
  EXPECT_EQ(digest(graph_laplacian_pipeline(raw)), "743e869a69df8e0a409c789958437203");
  CooMatrix sym(64, 64);
  for (const auto& t : raw.triplets()) {
    sym.add(t.row, t.col, t.value);
    if (t.row != t.col) sym.add(t.col, t.row, t.value);
  }
  EXPECT_EQ(digest(normalized_laplacian(sym)), "cd7c3a44c8c4492d522263416efdd7fe");
}

}  // namespace
}  // namespace mfla

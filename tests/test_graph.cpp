// Graph generator and Laplacian pipeline tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "dense/jacobi.hpp"
#include "dense/matrix.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

std::vector<double> dense_eigs(const CooMatrix& coo) {
  const auto a = CsrMatrix<double>::from_coo(coo);
  const std::size_t n = a.rows();
  DenseMatrix<double> d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) d(i, j) = a.at(i, j);
  DenseMatrix<double> v;
  EXPECT_GT(jacobi_eigen(d, v, 60), 0);
  std::vector<double> e(n);
  for (std::size_t i = 0; i < n; ++i) e[i] = d(i, i);
  std::sort(e.begin(), e.end());
  return e;
}

// ---- Generators -------------------------------------------------------------

TEST(Generators, StarDegrees) {
  const CooMatrix s = star(10);
  const auto deg = vertex_degrees(s);
  EXPECT_DOUBLE_EQ(deg[0], 9.0);
  for (std::size_t i = 1; i < 10; ++i) EXPECT_DOUBLE_EQ(deg[i], 1.0);
  EXPECT_TRUE(s.is_symmetric());
}

TEST(Generators, CompleteGraph) {
  const CooMatrix k = complete(6);
  EXPECT_EQ(k.nnz(), 30u);  // 6*5 directed entries
  for (const double d : vertex_degrees(k)) EXPECT_DOUBLE_EQ(d, 5.0);
}

TEST(Generators, CompleteBipartite) {
  const CooMatrix k = complete_bipartite(3, 4);
  EXPECT_EQ(k.rows(), 7u);
  const auto deg = vertex_degrees(k);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(deg[static_cast<std::size_t>(i)], 4.0);
  for (int i = 3; i < 7; ++i) EXPECT_DOUBLE_EQ(deg[static_cast<std::size_t>(i)], 3.0);
}

TEST(Generators, PathAndTree) {
  const auto p = path(5);
  EXPECT_EQ(p.nnz(), 8u);  // 4 undirected edges
  const auto t = binary_tree(7);
  EXPECT_EQ(t.nnz(), 12u);  // 6 edges
  EXPECT_TRUE(t.is_symmetric());
}

TEST(Generators, ErdosRenyiDensity) {
  Rng rng(61);
  const CooMatrix g = erdos_renyi(200, 0.1, rng);
  const double expected = 0.1 * 200 * 199;  // directed entries
  EXPECT_NEAR(static_cast<double>(g.nnz()), expected, 0.25 * expected);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(Generators, BarabasiAlbertHubs) {
  Rng rng(62);
  const CooMatrix g = barabasi_albert(300, 2, rng);
  const auto deg = vertex_degrees(g);
  double dmax = 0, dsum = 0;
  for (const double d : deg) {
    dmax = std::max(dmax, d);
    dsum += d;
  }
  EXPECT_GT(dmax, 4 * dsum / static_cast<double>(deg.size()));  // heavy tail
  EXPECT_TRUE(g.is_symmetric());
}

TEST(Generators, WattsStrogatzConnectedRing) {
  Rng rng(63);
  const CooMatrix g = watts_strogatz(100, 2, 0.0, rng);
  // beta = 0: pure ring lattice, every degree = 4.
  for (const double d : vertex_degrees(g)) EXPECT_DOUBLE_EQ(d, 4.0);
}

TEST(Generators, DuplicationDivergenceGrows) {
  Rng rng(64);
  const CooMatrix g = duplication_divergence(150, 0.4, rng);
  EXPECT_EQ(g.rows(), 150u);
  EXPECT_TRUE(g.is_symmetric());
  for (const double d : vertex_degrees(g)) EXPECT_GE(d, 1.0);  // no isolated vertices
}

TEST(Generators, Grid2D) {
  Rng rng(65);
  const CooMatrix g = grid_2d(5, 7, 0.0, rng);
  EXPECT_EQ(g.rows(), 35u);
  // Interior degree 4, corners 2.
  const auto deg = vertex_degrees(g);
  EXPECT_DOUBLE_EQ(deg[0], 2.0);
  EXPECT_DOUBLE_EQ(deg[1 * 7 + 3], 4.0);
}

TEST(Generators, RingOfCliques) {
  const CooMatrix g = ring_of_cliques(4, 5);
  EXPECT_EQ(g.rows(), 20u);
  EXPECT_TRUE(g.is_symmetric());
  // Each clique contributes 5*4 directed entries + ring edges.
  EXPECT_EQ(g.nnz(), 4u * 20u + 8u);
}

TEST(Generators, StochasticBlockCommunities) {
  Rng rng(66);
  const CooMatrix g = stochastic_block(200, 2, 0.3, 0.01, rng);
  // Count within- vs cross-community entries.
  std::size_t within = 0, cross = 0;
  for (const auto& t : g.triplets()) {
    if (t.row % 2 == t.col % 2) {
      ++within;
    } else {
      ++cross;
    }
  }
  EXPECT_GT(within, 5 * cross);
}

TEST(Generators, DisjointUnionBlocks) {
  const CooMatrix u = disjoint_union(complete(3), star(4));
  EXPECT_EQ(u.rows(), 7u);
  EXPECT_EQ(u.nnz(), complete(3).nnz() + star(4).nnz());
  // No cross-block entries.
  for (const auto& t : u.triplets()) {
    EXPECT_EQ(t.row < 3, t.col < 3);
  }
}

TEST(Generators, AddHubsRaisesMaxDegree) {
  Rng rng(67);
  const CooMatrix base = path(50);
  const CooMatrix g = add_hubs(base, 2, 30, rng);
  EXPECT_EQ(g.rows(), 52u);
  const auto deg = vertex_degrees(g);
  EXPECT_GE(deg[50], 20.0);  // hub degree (minus duplicate draws)
}

// ---- random_geometric against the all-pairs loop ------------------------------

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The O(n^2) oracle: every pair i < j, tested as random_geometric tests it.
Edges all_pairs_edges(const std::vector<double>& x, const std::vector<double>& y,
                      double radius) {
  const double r2 = radius * radius;
  Edges edges;
  for (std::uint32_t i = 0; i < x.size(); ++i) {
    for (std::uint32_t j = i + 1; j < x.size(); ++j) {
      const double dx = x[i] - x[j], dy = y[i] - y[j];
      if (dx * dx + dy * dy <= r2) edges.emplace_back(i, j);
    }
  }
  return edges;
}

Edges sorted(Edges e) {
  std::sort(e.begin(), e.end());
  return e;
}

const double kRadii[] = {0.0, 1e-3, 0.05, 0.3, 0.5, 0.99, 1.5, -0.1,
                         std::numeric_limits<double>::quiet_NaN()};

TEST(Generators, RandomGeometricMatchesAllPairs) {
  for (const std::uint32_t n : {0u, 1u, 2u, 50u, 500u}) {
    for (const double radius : kRadii) {
      const std::uint64_t seed = 0x9e0 + n;
      Rng draws(seed);
      std::vector<double> x(n), y(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        x[i] = draws.uniform();
        y[i] = draws.uniform();
      }
      const Edges expected = all_pairs_edges(x, y, radius);
      EXPECT_EQ(sorted(geometric_edges(x, y, radius)), expected) << n << " " << radius;
      // The generator: same draws, the same edge set as a symmetric 0/1
      // adjacency.
      CooMatrix adj(n, n);
      for (const auto& [i, j] : expected) {
        adj.add(i, j, 1.0);
        adj.add(j, i, 1.0);
      }
      adj.compress();
      Rng rng(seed);
      const CooMatrix g = random_geometric(n, radius, rng);
      EXPECT_EQ(g.rows(), adj.rows());
      ASSERT_EQ(g.nnz(), adj.nnz()) << n << " " << radius;
      for (std::size_t k = 0; k < g.nnz(); ++k) {
        EXPECT_EQ(g.triplets()[k].row, adj.triplets()[k].row);
        EXPECT_EQ(g.triplets()[k].col, adj.triplets()[k].col);
        EXPECT_EQ(g.triplets()[k].value, adj.triplets()[k].value);
      }
    }
  }
}

TEST(Generators, GeometricEdgesOnCellBoundaries) {
  // Every k/m for m <= 40 and its two floating-point neighbours. Both point
  // sets below have at most 40^2 cells (sqrt(n) <= 40 per side), so
  // whatever the cell side 1/g, points sit exactly on, just below and just
  // above its boundaries, 0 and 1 included.
  std::vector<double> v;
  for (int m = 1; m <= 40; ++m) {
    for (int k = 0; k <= m; ++k) {
      const double b = static_cast<double>(k) / m;
      v.push_back(b);
      v.push_back(std::nextafter(b, -1.0));
      v.push_back(std::nextafter(b, 2.0));
    }
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  for (const double radius : kRadii) {
    // The lattice: both coordinates on boundaries.
    std::vector<double> x, y;
    for (std::size_t i = 0; i < v.size(); ++i) {
      x.push_back(v[i]);
      y.push_back(v[(7 * i + 3) % v.size()]);
    }
    EXPECT_EQ(sorted(geometric_edges(x, y, radius)), all_pairs_edges(x, y, radius)) << radius;
    // Pairs |radius| apart along x, from a boundary.
    x.clear();
    y.clear();
    for (std::size_t i = 0; i < v.size(); i += 5) {
      if (!(v[i] + std::abs(radius) <= 1.0)) continue;
      x.push_back(v[i]);
      y.push_back(0.375);
      x.push_back(v[i] + std::abs(radius));
      y.push_back(0.375);
    }
    EXPECT_EQ(sorted(geometric_edges(x, y, radius)), all_pairs_edges(x, y, radius)) << radius;
  }
}

// ---- Pipeline stages ------------------------------------------------------------

TEST(Laplacian, SquarifyCropsRemovableZeroBlock) {
  CooMatrix a(5, 3);
  a.add(0, 1, 1.0);
  a.add(2, 2, 2.0);  // all entries within the 3x3 block
  const CooMatrix s = squarify(a);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s.cols(), 3u);
}

TEST(Laplacian, SquarifyPadsWhenNotCroppable) {
  CooMatrix a(5, 3);
  a.add(4, 1, 1.0);  // row 4 is outside the 3x3 block
  const CooMatrix s = squarify(a);
  EXPECT_EQ(s.rows(), 5u);
  EXPECT_EQ(s.cols(), 5u);
}

TEST(Laplacian, AverageSymmetrization) {
  CooMatrix a(2, 2);
  a.add(0, 1, 4.0);
  const CooMatrix s = symmetrize_average(a);
  const auto m = CsrMatrix<double>::from_coo(s);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 2.0);
  EXPECT_TRUE(s.is_symmetric());
}

TEST(Laplacian, NormalizedLaplacianStructure) {
  // Paper Eq. (1): unit diagonal for non-isolated vertices,
  // off-diagonal -A_ij/sqrt(deg_i deg_j).
  const CooMatrix adj = star(5);
  const CooMatrix l = normalized_laplacian(adj);
  const auto m = CsrMatrix<double>::from_coo(l);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(m.at(i, i), 1.0);
  // Hub degree 4, leaf degree 1: off-diagonal = -1/2.
  EXPECT_DOUBLE_EQ(m.at(0, 1), -0.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -0.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(Laplacian, IsolatedVertexRowStaysZero) {
  CooMatrix adj(3, 3);
  adj.add(0, 1, 1.0);
  adj.add(1, 0, 1.0);  // vertex 2 isolated
  const CooMatrix l = normalized_laplacian(adj);
  const auto m = CsrMatrix<double>::from_coo(l);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
}

TEST(Laplacian, SpectrumInZeroTwo) {
  // Normalized Laplacian eigenvalues always lie in [0, 2].
  Rng rng(68);
  for (int trial = 0; trial < 4; ++trial) {
    const CooMatrix adj = erdos_renyi(40, 0.15, rng);
    const auto e = dense_eigs(normalized_laplacian(adj));
    EXPECT_GE(e.front(), -1e-10);
    EXPECT_LE(e.back(), 2.0 + 1e-10);
    // Connected-ish graph: smallest eigenvalue ~ 0.
    EXPECT_NEAR(e.front(), 0.0, 1e-9);
  }
}

TEST(Laplacian, CompleteGraphKnownSpectrum) {
  // K_n normalized Laplacian: eigenvalue 0 (once) and n/(n-1) (n-1 times).
  const auto e = dense_eigs(normalized_laplacian(complete(8)));
  EXPECT_NEAR(e[0], 0.0, 1e-12);
  for (std::size_t i = 1; i < e.size(); ++i) EXPECT_NEAR(e[i], 8.0 / 7.0, 1e-12);
}

TEST(Laplacian, CompleteBipartiteSpectrum) {
  // K_{a,b} normalized Laplacian eigenvalues: 0, 1 (a+b-2 times), 2.
  const auto e = dense_eigs(normalized_laplacian(complete_bipartite(4, 5)));
  EXPECT_NEAR(e.front(), 0.0, 1e-12);
  EXPECT_NEAR(e.back(), 2.0, 1e-12);
  for (std::size_t i = 1; i + 1 < e.size(); ++i) EXPECT_NEAR(e[i], 1.0, 1e-12);
}

TEST(Laplacian, PipelineHandlesDirectedWeighted) {
  CooMatrix raw(3, 3);
  raw.add(0, 1, 2.0);  // directed weighted edge
  raw.add(1, 2, 4.0);
  const CooMatrix l = graph_laplacian_pipeline(raw);
  EXPECT_TRUE(l.is_symmetric(1e-15));
  const auto e = dense_eigs(l);
  EXPECT_GE(e.front(), -1e-12);
  EXPECT_LE(e.back(), 2.0 + 1e-12);
}

TEST(Laplacian, SelfLoopsOnlyAffectDegrees) {
  CooMatrix adj(2, 2);
  adj.add(0, 0, 3.0);  // self loop
  adj.add(0, 1, 1.0);
  adj.add(1, 0, 1.0);
  const CooMatrix l = normalized_laplacian(adj);
  const auto m = CsrMatrix<double>::from_coo(l);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);  // still unit diagonal
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0 / std::sqrt(4.0 * 1.0));
}

}  // namespace
}  // namespace mfla

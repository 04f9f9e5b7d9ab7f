// Synthetic graph generators.
//
// These substitute for the Network Repository download (no network access
// in this environment): each generator produces adjacency matrices whose
// structure matches one of the repository's category families, so the
// Laplacian spectra exercise the same phenomena the paper measures
// (clustered eigenvalues, hubs with huge degree products, multiplicities
// from symmetric components, ...). All generators are deterministic given
// the Rng.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "support/rng.hpp"

namespace mfla {

/// G(n, p) Erdős–Rényi random graph.
[[nodiscard]] CooMatrix erdos_renyi(std::uint32_t n, double p, Rng& rng);

/// Barabási–Albert preferential attachment with m edges per new vertex.
[[nodiscard]] CooMatrix barabasi_albert(std::uint32_t n, std::uint32_t m, Rng& rng);

/// Watts–Strogatz small world: ring lattice with k neighbors per side,
/// rewired with probability beta.
[[nodiscard]] CooMatrix watts_strogatz(std::uint32_t n, std::uint32_t k, double beta, Rng& rng);

/// Duplication–divergence model (protein-interaction-like).
[[nodiscard]] CooMatrix duplication_divergence(std::uint32_t n, double retain, Rng& rng);

/// 2-D grid graph (rows x cols) with optional random extra/dropped edges.
[[nodiscard]] CooMatrix grid_2d(std::uint32_t rows, std::uint32_t cols, double perturb, Rng& rng);

/// Random geometric graph in the unit square with connection radius r.
[[nodiscard]] CooMatrix random_geometric(std::uint32_t n, double radius, Rng& rng);

/// The pairs (i, j), i < j, of points (x[k], y[k]) in the unit square that
/// pass dx*dx + dy*dy <= radius*radius with dx = x[i] - x[j] and
/// dy = y[i] - y[j]: random_geometric's edge set, in no particular order.
/// A uniform cell grid tests each point against its own and the adjacent
/// cells only, so the work is linear in n for radius ~ 1/sqrt(n).
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> geometric_edges(
    const std::vector<double>& x, const std::vector<double>& y, double radius);

/// Stochastic block model with `blocks` equal communities.
[[nodiscard]] CooMatrix stochastic_block(std::uint32_t n, std::uint32_t blocks, double p_in,
                                         double p_out, Rng& rng);

/// Star with n-1 leaves (vertex 0 is the hub).
[[nodiscard]] CooMatrix star(std::uint32_t n);

/// Complete graph K_n.
[[nodiscard]] CooMatrix complete(std::uint32_t n);

/// Complete bipartite graph K_{a,b}.
[[nodiscard]] CooMatrix complete_bipartite(std::uint32_t a, std::uint32_t b);

/// Path graph P_n.
[[nodiscard]] CooMatrix path(std::uint32_t n);

/// Ring of c cliques of size s, joined by single edges (power-grid-like
/// clustered topology).
[[nodiscard]] CooMatrix ring_of_cliques(std::uint32_t c, std::uint32_t s);

/// Balanced binary tree with n vertices.
[[nodiscard]] CooMatrix binary_tree(std::uint32_t n);

/// Disjoint union (block diagonal) of two graphs.
[[nodiscard]] CooMatrix disjoint_union(const CooMatrix& a, const CooMatrix& b);

/// Attach `hubs` additional vertices, each connected to `degree` random
/// existing vertices (creates large-degree hubs; drives Laplacian entries
/// below small-format subnormal floors — the paper's miscellaneous ∞σ).
[[nodiscard]] CooMatrix add_hubs(const CooMatrix& g, std::uint32_t hubs, std::uint32_t degree,
                                 Rng& rng);

}  // namespace mfla

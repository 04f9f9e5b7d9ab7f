#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>
#include <utility>
#include <vector>

namespace mfla {

namespace {

/// Build a symmetric adjacency from an undirected edge set.
CooMatrix from_edges(std::uint32_t n, const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  CooMatrix a(n, n);
  a.reserve(2 * edges.size());
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    a.add(u, v, 1.0);
    a.add(v, u, 1.0);
  }
  a.compress();
  return a;
}

/// geometric_edges' neighbour offsets (dx, dy): the cell to the right and
/// the three above, so each pair of adjacent cells is visited once.
constexpr std::pair<int, int> kForwardCells[] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};

}  // namespace

CooMatrix erdos_renyi(std::uint32_t n, double p, Rng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < p) edges.emplace_back(i, j);
    }
  }
  return from_edges(n, edges);
}

CooMatrix barabasi_albert(std::uint32_t n, std::uint32_t m, Rng& rng) {
  if (m < 1) m = 1;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  // Degree-proportional sampling via the repeated-endpoints trick.
  std::vector<std::uint32_t> endpoints;
  const std::uint32_t m0 = m + 1;
  for (std::uint32_t i = 0; i < m0 && i + 1 < n; ++i) {  // initial clique
    for (std::uint32_t j = i + 1; j < m0; ++j) {
      edges.emplace_back(i, j);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }
  for (std::uint32_t v = m0; v < n; ++v) {
    std::set<std::uint32_t> targets;
    std::uint32_t guard = 0;
    while (targets.size() < m && guard++ < 16 * m) {
      const std::uint32_t t = endpoints[rng.uniform_index(endpoints.size())];
      if (t != v) targets.insert(t);
    }
    for (const std::uint32_t t : targets) {
      edges.emplace_back(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return from_edges(n, edges);
}

CooMatrix watts_strogatz(std::uint32_t n, std::uint32_t k, double beta, Rng& rng) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set;
  auto norm = [](std::uint32_t a, std::uint32_t b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t d = 1; d <= k; ++d) {
      const std::uint32_t j = (i + d) % n;
      if (rng.uniform() < beta) {
        // Rewire to a random non-self target.
        std::uint32_t t = static_cast<std::uint32_t>(rng.uniform_index(n));
        std::uint32_t guard = 0;
        while ((t == i || edge_set.count(norm(i, t)) != 0) && guard++ < 32) {
          t = static_cast<std::uint32_t>(rng.uniform_index(n));
        }
        if (t != i) edge_set.insert(norm(i, t));
      } else {
        edge_set.insert(norm(i, j));
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges(edge_set.begin(), edge_set.end());
  return from_edges(n, edges);
}

CooMatrix duplication_divergence(std::uint32_t n, double retain, Rng& rng) {
  // Start from a small seed; each new vertex copies a random template
  // vertex, keeps each copied edge with probability `retain`, and always
  // links back to the template with probability 0.5.
  std::vector<std::vector<std::uint32_t>> adj(n);
  auto connect = [&adj](std::uint32_t a, std::uint32_t b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  connect(0, 1);
  connect(1, 2);
  connect(0, 2);
  for (std::uint32_t v = 3; v < n; ++v) {
    const auto tmpl = static_cast<std::uint32_t>(rng.uniform_index(v));
    bool attached = false;
    for (const std::uint32_t nb : std::vector<std::uint32_t>(adj[tmpl])) {
      if (rng.uniform() < retain) {
        connect(v, nb);
        attached = true;
      }
    }
    if (rng.uniform() < 0.5 || !attached) connect(v, tmpl);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const std::uint32_t v : adj[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return from_edges(n, edges);
}

CooMatrix grid_2d(std::uint32_t rows, std::uint32_t cols, double perturb, Rng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  auto id = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  const std::uint32_t n = rows * cols;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols && rng.uniform() >= perturb) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows && rng.uniform() >= perturb) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  // A few long-range shortcuts (bridges/highways).
  const auto shortcuts = static_cast<std::uint32_t>(perturb * n);
  for (std::uint32_t s = 0; s < shortcuts; ++s) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return from_edges(n, edges);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> geometric_edges(const std::vector<double>& x,
                                                                    const std::vector<double>& y,
                                                                    double radius) {
  const auto n = static_cast<std::uint32_t>(x.size());
  const double r2 = radius * radius;
  // g x g cells of side 1/g. The side exceeds |radius| by a relative 1e-6,
  // far above the rounding in the distance test and in the cell index, so
  // a pair that passes the test lies in the same or adjacent cells. At most
  // ~n cells; one cell (all pairs) for |radius| >= 1, inf and NaN.
  const double reach = std::abs(radius) * (1.0 + 1e-6);
  const auto cap =
      static_cast<std::uint32_t>(std::max(1.0, std::floor(std::sqrt(static_cast<double>(n)))));
  std::uint32_t g = 1;
  if (reach * cap < 1.0) {
    g = cap;
  } else if (reach < 1.0) {
    g = static_cast<std::uint32_t>(1.0 / reach);
  }
  const auto cell = [g](double v) -> std::uint32_t {
    const double c = v * g;
    if (!(c > 0.0)) return 0;
    return c < g ? static_cast<std::uint32_t>(c) : g - 1;
  };
  // Counting sort of the points by cell; ascending index within a cell.
  std::vector<std::size_t> start(static_cast<std::size_t>(g) * g + 1, 0);
  std::vector<std::size_t> cell_of(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    cell_of[k] = static_cast<std::size_t>(cell(y[k])) * g + cell(x[k]);
    ++start[cell_of[k] + 1];
  }
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<std::uint32_t> order(n);
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::uint32_t k = 0; k < n; ++k) order[next[cell_of[k]]++] = k;
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const auto test = [&](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t i = std::min(a, b), j = std::max(a, b);
    const double dx = x[i] - x[j], dy = y[i] - y[j];
    if (dx * dx + dy * dy <= r2) edges.emplace_back(i, j);
  };
  for (std::uint32_t cy = 0; cy < g; ++cy) {
    for (std::uint32_t cx = 0; cx < g; ++cx) {
      const std::size_t c = static_cast<std::size_t>(cy) * g + cx;
      for (std::size_t p = start[c]; p < start[c + 1]; ++p) {
        for (std::size_t q = p + 1; q < start[c + 1]; ++q) test(order[p], order[q]);
      }
      for (const auto& [ox, oy] : kForwardCells) {
        const std::int64_t nx = std::int64_t{cx} + ox, ny = std::int64_t{cy} + oy;
        if (nx < 0 || nx >= g || ny >= g) continue;
        const std::size_t d = static_cast<std::size_t>(ny) * g + static_cast<std::size_t>(nx);
        for (std::size_t p = start[c]; p < start[c + 1]; ++p) {
          for (std::size_t q = start[d]; q < start[d + 1]; ++q) test(order[p], order[q]);
        }
      }
    }
  }
  return edges;
}

CooMatrix random_geometric(std::uint32_t n, double radius, Rng& rng) {
  std::vector<double> x(n), y(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  return from_edges(n, geometric_edges(x, y, radius));
}

CooMatrix stochastic_block(std::uint32_t n, std::uint32_t blocks, double p_in, double p_out,
                           Rng& rng) {
  if (blocks < 1) blocks = 1;
  std::vector<std::uint32_t> community(n);
  for (std::uint32_t i = 0; i < n; ++i) community[i] = i % blocks;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const double p = (community[i] == community[j]) ? p_in : p_out;
      if (rng.uniform() < p) edges.emplace_back(i, j);
    }
  }
  return from_edges(n, edges);
}

CooMatrix star(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 1; i < n; ++i) edges.emplace_back(0, i);
  return from_edges(n, edges);
}

CooMatrix complete(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return from_edges(n, edges);
}

CooMatrix complete_bipartite(std::uint32_t a, std::uint32_t b) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i < a; ++i)
    for (std::uint32_t j = 0; j < b; ++j) edges.emplace_back(i, a + j);
  return from_edges(a + b, edges);
}

CooMatrix path(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return from_edges(n, edges);
}

CooMatrix ring_of_cliques(std::uint32_t c, std::uint32_t s) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t b = 0; b < c; ++b) {
    const std::uint32_t base = b * s;
    for (std::uint32_t i = 0; i < s; ++i)
      for (std::uint32_t j = i + 1; j < s; ++j) edges.emplace_back(base + i, base + j);
    const std::uint32_t next = ((b + 1) % c) * s;
    edges.emplace_back(base, next);
  }
  return from_edges(c * s, edges);
}

CooMatrix binary_tree(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 1; i < n; ++i) edges.emplace_back((i - 1) / 2, i);
  return from_edges(n, edges);
}

CooMatrix disjoint_union(const CooMatrix& a, const CooMatrix& b) {
  CooMatrix u(a.rows() + b.rows(), a.cols() + b.cols());
  u.reserve(a.nnz() + b.nnz());
  for (const auto& t : a.triplets()) u.add(t.row, t.col, t.value);
  const auto ro = static_cast<std::uint32_t>(a.rows());
  const auto co = static_cast<std::uint32_t>(a.cols());
  for (const auto& t : b.triplets()) u.add(t.row + ro, t.col + co, t.value);
  u.compress();
  return u;
}

CooMatrix add_hubs(const CooMatrix& g, std::uint32_t hubs, std::uint32_t degree, Rng& rng) {
  const auto n0 = static_cast<std::uint32_t>(g.rows());
  CooMatrix out(n0 + hubs, n0 + hubs);
  out.reserve(g.nnz() + 2ull * hubs * degree);
  for (const auto& t : g.triplets()) out.add(t.row, t.col, t.value);
  for (std::uint32_t h = 0; h < hubs; ++h) {
    const std::uint32_t hub = n0 + h;
    for (std::uint32_t d = 0; d < degree; ++d) {
      const auto t = static_cast<std::uint32_t>(rng.uniform_index(n0 + h));
      out.add(hub, t, 1.0);
      out.add(t, hub, 1.0);
    }
  }
  out.compress();
  return out;
}

}  // namespace mfla

#include "sparse/edge_list.hpp"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace mfla {

namespace {
struct RawEdge {
  std::uint64_t u, v;
  double w;
};

[[noreturn]] void fail_at(long lineno, const std::string& what) {
  throw std::runtime_error("edge list: line " + std::to_string(lineno) + ": " + what);
}

}  // namespace

CooMatrix read_edge_list(std::istream& in, const EdgeListOptions& opts) {
  std::vector<RawEdge> edges;
  std::unordered_map<std::uint64_t, std::uint32_t> remap;
  std::string line;
  long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Normalize separators: commas become spaces.
    for (char& c : line) {
      if (c == ',' || c == ';' || c == '\t') c = ' ';
    }
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i == line.size() || line[i] == '%' || line[i] == '#') continue;
    std::istringstream ls(line.substr(i));
    std::uint64_t u = 0, v = 0;
    double w = 1.0;
    ls >> u >> v;
    if (ls.fail()) fail_at(lineno, "bad line '" + line + "'");
    // A third column, when present, must parse as the weight in full;
    // columns after it (e.g. a timestamp) are ignored.
    if (opts.use_weights && !(ls >> std::ws).eof()) {
      if (!(ls >> w) || !(ls.eof() || std::isspace(ls.peek())))
        fail_at(lineno, "bad weight in '" + line + "'");
    }
    edges.push_back({u, v, w});
  }
  // Compact vertex ids in first-seen order (deterministic).
  auto id_of = [&remap](std::uint64_t raw) {
    auto [it, inserted] = remap.try_emplace(raw, static_cast<std::uint32_t>(remap.size()));
    return it->second;
  };
  CooMatrix coo;
  coo.reserve(edges.size());
  for (const auto& e : edges) {
    coo.add(id_of(e.u), id_of(e.v), e.w);
  }
  const std::size_t n = remap.size();
  coo.set_shape(n, n);
  coo.compress();
  return coo;
}

CooMatrix read_edge_list_file(const std::string& path, const EdgeListOptions& opts) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("edge list: cannot open '" + path + "'");
  return read_edge_list(in, opts);
}

}  // namespace mfla

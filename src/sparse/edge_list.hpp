// Edge-list (.edges) reader, as distributed by the Network Repository.
//
// Lines are "u v" or "u v w" (optionally comma-separated); '%' and '#'
// start comments. Vertex ids may be 0- or 1-based and need not be
// contiguous — ids are compacted to a dense range, mirroring the paper's
// "general parsing rules" cleanup stage. A line whose ids or weight do not
// parse throws std::runtime_error naming its 1-based line number.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/coo.hpp"

namespace mfla {

struct EdgeListOptions {
  bool use_weights = true;  // take the third column as weight when present
                            // (it must then parse as a number)
};

/// Parse an edge list into a (square) adjacency COO matrix.
[[nodiscard]] CooMatrix read_edge_list(std::istream& in, const EdgeListOptions& opts = {});

[[nodiscard]] CooMatrix read_edge_list_file(const std::string& path,
                                            const EdgeListOptions& opts = {});

}  // namespace mfla

#include "datasets/corpus.hpp"

#include <stdexcept>

#include "datasets/general_corpus.hpp"
#include "datasets/graph_corpus.hpp"
#include "graph/laplacian.hpp"
#include "sparse/edge_list.hpp"
#include "sparse/matrix_market.hpp"

namespace mfla {

std::vector<TestMatrix> build_named_corpus(const std::string& name, std::size_t count) {
  if (name == "general") {
    GeneralCorpusOptions opts;
    opts.count = count;
    return build_general_corpus(opts);
  }
  if (name == "biological" || name == "infrastructure" || name == "social" ||
      name == "miscellaneous") {
    GraphCorpusOptions opts;
    opts.counts = {count, count, count, count};
    return build_graph_corpus(opts, name);
  }
  throw std::invalid_argument(
      "unknown corpus '" + name +
      "' (expected general|biological|infrastructure|social|miscellaneous)");
}

CooMatrix read_matrix_file(const std::string& path) {
  if (path.ends_with(".edges")) return graph_laplacian_pipeline(read_edge_list_file(path));
  CooMatrix coo = read_matrix_market_file(path);
  if (!coo.is_symmetric(1e-12)) coo = symmetrize_average(squarify(coo));
  return coo;
}

}  // namespace mfla

#include "datasets/corpus.hpp"

#include <stdexcept>

#include "datasets/general_corpus.hpp"
#include "datasets/graph_corpus.hpp"

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

}  // namespace mfla

// Table 1 reproduction: composition of the graph corpus — the 4 aggregated
// classes built from per-category generators, with per-category counts
// (paper Table 1 shape at reduced scale; see docs/DESIGN.md §3), plus the
// general-matrix corpus statistics that define the Figure 1 workload.
//
// The class sizes below are the figures' corpus sizes: Figure N is
// `mfla_experiment --corpus <class> --count <size>` (docs/EXPERIMENTS.md).
#include <cstdio>
#include <map>

#include "api/api.hpp"
#include "bench_scale.hpp"

int main() {
  using namespace mfla;
  using benchtool::scaled;

  GraphCorpusOptions gopts;
  gopts.counts.biological = scaled(40);
  gopts.counts.infrastructure = scaled(29);
  gopts.counts.social = scaled(30);
  gopts.counts.miscellaneous = scaled(45);

  std::printf("=== Table 1: classification of graphs into four classes ===\n\n");
  const auto comp = graph_corpus_composition(gopts);
  std::map<std::string, std::size_t> class_totals;
  for (const auto& c : comp) class_totals[c.klass] += c.count;

  std::printf("%-16s %10s   %-16s %14s\n", "class", "class size", "graph category",
              "category size");
  std::string last_class;
  for (const auto& c : comp) {
    if (c.klass != last_class) {
      std::printf("%-16s %10zu   %-16s %14zu\n", c.klass.c_str(), class_totals[c.klass],
                  c.category.c_str(), c.count);
      last_class = c.klass;
    } else {
      std::printf("%-16s %10s   %-16s %14zu\n", "", "", c.category.c_str(), c.count);
    }
  }
  std::size_t total = 0;
  for (const auto& [k, v] : class_totals) total += v;
  std::printf("\ntotal graphs: %zu (paper: 3,302 at full Network Repository scale)\n\n", total);

  // General corpus statistics (the Figure 1 workload).
  GeneralCorpusOptions gen;
  gen.count = scaled(64);
  const auto corpus = build_general_corpus(gen);
  std::map<std::string, std::size_t> fam;
  std::size_t max_nnz = 0, min_n = SIZE_MAX, max_n = 0;
  for (const auto& t : corpus) {
    fam[t.category]++;
    max_nnz = std::max(max_nnz, t.nnz());
    min_n = std::min(min_n, t.n());
    max_n = std::max(max_n, t.n());
  }
  std::printf("=== General matrix corpus (SuiteSparse substitute) ===\n\n");
  std::printf("%zu symmetric matrices, n in [%zu, %zu], nnz <= %zu (paper filter: 20,000)\n",
              corpus.size(), min_n, max_n, max_nnz);
  for (const auto& [family, count] : fam) {
    std::printf("  %-12s %4zu\n", family.c_str(), count);
  }
  return 0;
}

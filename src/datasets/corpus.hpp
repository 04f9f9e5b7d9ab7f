// The built-in corpora by name: the one dispatch behind every front end
// that takes a corpus name (mfla_experiment --corpus, the serving daemon's
// "corpus" request field), so the same name and count always build the
// same matrices; and the one reader of user matrix files.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "datasets/test_matrix.hpp"

namespace mfla {

/// Matrices per corpus class when a front end is given no count: the
/// default of mfla_experiment --count and of the daemon's "count" field.
inline constexpr std::size_t kDefaultCorpusCount = 24;

/// "general" builds `count` matrices of the general corpus; "biological",
/// "infrastructure", "social" or "miscellaneous" builds `count` graphs of
/// that class. Any other name throws std::invalid_argument naming the
/// valid ones.
[[nodiscard]] std::vector<TestMatrix> build_named_corpus(const std::string& name,
                                                         std::size_t count);

/// A matrix file as the front ends assemble it: a ".edges" graph becomes
/// its normalized Laplacian (graph_laplacian_pipeline); any other path is
/// read as Matrix Market and, unless symmetric to 1e-12, replaced by
/// (A + Aᵀ)/2 of its squarified form. The readers' errors propagate.
[[nodiscard]] CooMatrix read_matrix_file(const std::string& path);

}  // namespace mfla

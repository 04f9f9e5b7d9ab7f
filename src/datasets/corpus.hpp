// The built-in corpora by name: the one dispatch behind every front end
// that takes a corpus name (mfla_experiment --corpus, the serving daemon's
// "corpus" request field), so the same name and count always build the
// same matrices.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "datasets/test_matrix.hpp"

namespace mfla {

/// "general" builds `count` matrices of the general corpus; "biological",
/// "infrastructure", "social" or "miscellaneous" builds `count` graphs of
/// that class. Any other name throws std::invalid_argument naming the
/// valid ones.
[[nodiscard]] std::vector<TestMatrix> build_named_corpus(const std::string& name,
                                                         std::size_t count);

}  // namespace mfla

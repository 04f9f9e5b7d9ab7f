// The mfla::api facade — the single supported entry point of the library.
//
// Include this header from applications, tools and examples:
//
//   * api::Sweep       — fluent builder over the multi-format evaluation
//                        pipeline (api/sweep.hpp)
//   * api::Solver      — runtime format/algorithm-polymorphic solver
//                        handles (api/solver.hpp)
//   * api::ResultSink  — composable output pipeline: Csv / Memory /
//                        Progress sinks (api/sinks.hpp)
//
// The underlying library surface (formats, sparse/dense containers,
// corpora, graph generators, reports) is re-exported via mfla.hpp so one
// include serves a whole driver. The per-matrix stages underneath
// (compute_reference_tiered, run_format_dynamic) stay public for code that
// needs a single one; docs/API.md maps the rest onto the facade.
#pragma once

#include "api/sinks.hpp"
#include "api/solver.hpp"
#include "api/sweep.hpp"
#include "mfla.hpp"

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

/// \file checker.h
/// Correctness checks that share no evaluation code with the path under
/// test: expected answers come from the spec engine (PhiEngine::kNaive
/// with closure fusion off, i.e. Definition 4.1 run literally) while the
/// server answers with the fused frontier engine; the version a run of
/// writes must reach comes from DeltaOverlayGraph::RebuildReference,
/// while the server publishes DeltaOverlayGraph::Apply versions.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_engine.h"
#include "generator.h"
#include "graph/property_graph.h"
#include "path/path_set.h"

namespace perfbench {

/// Parses the path count of an "OK <n> paths..." response.
bool ParseQueryCount(const std::string& response, size_t* n);
/// True when `response` answers a query with exactly `expected` paths.
bool QueryResponseMatches(const std::string& response, size_t expected);
/// True for an acknowledged "OK mutate ..." response.
bool MutateResponseOk(const std::string& response);

/// The spec engine's options.
pathalg::engine::EngineOptions SpecEngineOptions();

/// `base` with `mutations` (mutation-grammar texts) applied, built by the
/// from-scratch reference path.
pathalg::Result<pathalg::PropertyGraph> ReferenceGraph(
    const std::shared_ptr<const pathalg::PropertyGraph>& base,
    const std::vector<std::string>& mutations);

struct Pinned {
  std::vector<size_t> counts;
  /// Full spec-engine answers, when requested.
  std::vector<pathalg::PathSet> paths;
};

/// Evaluates every query with the spec engine over `base`. A query that
/// fails is an error: the workloads contain no refusals.
pathalg::Result<Pinned> ComputePins(
    const std::shared_ptr<const pathalg::PropertyGraph>& base,
    const std::vector<std::string>& queries, bool keep_paths);

/// ComputePins' counts, computed in a forked child process over a fresh
/// build of `graph_spec`, so the spec engine's memory and time never
/// reach the measuring process's peak RSS or set-up time. Must be called
/// before the process starts any thread.
pathalg::Result<std::vector<size_t>> ComputePinCountsIsolated(
    const std::string& graph_spec, const std::vector<std::string>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_

#ifndef PATHALG_ENGINE_REPLAY_H_
#define PATHALG_ENGINE_REPLAY_H_

/// \file replay.h
/// The end-to-end workload replay driver: run every query of a `.gqlw`
/// workload through a QueryEngine session — normalize → plan-cache →
/// parse → optimize → evaluate — and report per-query and aggregate
/// stats. This is the measurement surface the ROADMAP's scaling work
/// (CSR adjacency, parallel operators, sharding) is judged through:
/// ReplayReportToJson emits `wall_time_ms` / `sum_iteration_time_ms`
/// maps in the same shape as the `BENCH_*.json` aggregates, so
/// bench/compare.py diffs replay reports and bench runs alike.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_engine.h"
#include "engine/workload_file.h"

namespace pathalg {
namespace engine {

struct ReplayOptions {
  /// Full passes over the workload. Pass 2+ of an unchanged workload
  /// should be all plan-cache hits; replaying with passes >= 2 is the
  /// standard way to measure the cache's effect.
  size_t passes = 1;
  /// Stop at the first query error instead of recording it and moving on.
  bool fail_fast = false;
  /// Eval thread count for the replay (EvalOptions::threads semantics;
  /// 0 = hardware concurrency). Overrides the workload's `# threads`
  /// directive when set — the knob bench sweeps use to replay one
  /// workload at several thread counts. Both the override and the
  /// directive are scoped to the replay: the engine's own setting is
  /// restored before ReplayWorkload returns.
  std::optional<size_t> threads;
};

/// Stats for one workload entry, summed over repeats and passes.
struct ReplayQueryStat {
  std::string name;
  std::string query;
  /// Non-empty for `# mutate` steps; `runs` then counts applications
  /// (one per pass) and `total_us` the apply cost. The graph version a
  /// run of mutate steps leads to is built before the next query entry
  /// and booked to that entry's `total_us`.
  std::string mutation;
  size_t runs = 0;
  size_t cache_hits = 0;
  uint64_t parse_us = 0;
  uint64_t optimize_us = 0;
  uint64_t eval_us = 0;
  uint64_t total_us = 0;
  /// Per-operator evaluation stats, merged across all runs (timings
  /// summed, peak-cardinality high-water kept).
  EvalStats eval;
  /// Cardinality of the last successful run.
  size_t result_paths = 0;
  /// True when every run of this entry produced the same cardinality.
  bool stable_cardinality = true;
  std::optional<size_t> expect;
  /// False when `expect` is set and any run's cardinality differed.
  bool expect_ok = true;
  /// First error seen (OK when all runs succeeded).
  Status error = Status::OK();
};

struct ReplayReport {
  std::string graph_spec;
  size_t graph_nodes = 0;
  size_t graph_edges = 0;
  size_t passes = 0;
  /// Eval thread count the replay ran with (after directive/override
  /// resolution; 1 = serial, 0 = hardware concurrency).
  size_t threads = 1;
  std::vector<ReplayQueryStat> queries;
  // Aggregates over all runs:
  uint64_t wall_us = 0;  // whole replay, wall clock
  size_t total_runs = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t errors = 0;
  size_t expect_failures = 0;
  /// `# mutate` steps applied (passes × mutation entries). Each pass
  /// restarts from the workload's original graph, so expectations stay
  /// pass-independent.
  size_t mutations = 0;
  /// Graph versions built for the queries after mutate steps: one per
  /// run of consecutive mutate steps that a query entry follows.
  size_t materializations = 0;

  /// True when no run errored and every expectation held.
  bool ok() const { return errors == 0 && expect_failures == 0; }
};

/// Replays `workload` through `engine` (the caller picks/owns the graph —
/// use BuildWorkloadGraph(workload.graph_spec) to honor the file's
/// `# graph` directive). Only infrastructure failures return non-OK;
/// query errors and expectation misses are recorded in the report unless
/// `options.fail_fast` is set. A workload with `# mutate` steps leaves
/// the engine on the graph version its last query entry read.
Result<ReplayReport> ReplayWorkload(QueryEngine& engine,
                                    const Workload& workload,
                                    const ReplayOptions& options = {});

/// One-call form: builds the graph from the workload's `# graph` spec and
/// a fresh QueryEngine session, then replays.
Result<ReplayReport> ReplayWorkload(const Workload& workload,
                                    const ReplayOptions& options = {},
                                    const EngineOptions& engine_options = {});

/// Renders the report as pretty-printed JSON: a `queries` array with
/// per-query timings and cache stats, an `aggregate` object, and the
/// compare.py-compatible `wall_time_ms` / `sum_iteration_time_ms` maps
/// keyed by query name.
std::string ReplayReportToJson(const ReplayReport& report);

/// Human-readable fixed-width table of the same numbers.
std::string ReplayReportToTable(const ReplayReport& report);

}  // namespace engine
}  // namespace pathalg

#endif  // PATHALG_ENGINE_REPLAY_H_

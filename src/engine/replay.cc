#include "engine/replay.h"

#include <cstdio>
#include <memory>

#include "common/timing.h"
#include "mutation/delta_log.h"
#include "mutation/overlay.h"

namespace pathalg {
namespace engine {

namespace {

std::string Ms(uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1000.0);
  return buf;
}

/// JSON string literal with full escaping (str_util's QuoteString only
/// handles quote/backslash; query text and Status messages may carry
/// tabs or newlines, which are illegal raw inside JSON strings).
std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<ReplayReport> ReplayWorkload(QueryEngine& engine,
                                    const Workload& workload,
                                    const ReplayOptions& options) {
  if (options.passes == 0) {
    return Status::InvalidArgument("replay needs passes >= 1");
  }
  // Thread-count resolution: an explicit ReplayOptions override wins,
  // then the workload's own `# threads` directive, then whatever the
  // session engine was configured with. The override is scoped to this
  // replay — a long-lived serving session must come back out with its
  // own configuration, whichever return path we take.
  // The graph is restored alongside: a workload with `# mutate` steps
  // walks the engine through derived versions, and a long-lived session
  // must come back out on the graph it went in with.
  struct SessionRestore {
    QueryEngine& engine;
    size_t original_threads;
    std::shared_ptr<const PropertyGraph> original_graph;
    ~SessionRestore() {
      engine.SetEvalThreads(original_threads);
      engine.SetGraph(std::move(original_graph));
    }
  } restore{engine, engine.eval_threads(), engine.shared_graph()};
  if (options.threads.has_value()) {
    engine.SetEvalThreads(*options.threads);
  } else if (workload.threads.has_value()) {
    engine.SetEvalThreads(*workload.threads);
  }
  ReplayReport report;
  report.graph_spec = workload.graph_spec;
  report.graph_nodes = engine.graph().num_nodes();
  report.graph_edges = engine.graph().num_edges();
  report.passes = options.passes;
  report.threads = engine.eval_threads();
  report.queries.reserve(workload.entries.size());
  bool has_mutations = false;
  for (const WorkloadEntry& e : workload.entries) {
    ReplayQueryStat stat;
    stat.name = e.name;
    stat.query = e.query;
    stat.mutation = e.mutation;
    stat.expect = e.expect;
    if (!e.mutation.empty()) has_mutations = true;
    report.queries.push_back(std::move(stat));
  }
  // First observed cardinality per entry, for the stability check.
  std::vector<std::optional<size_t>> first_card(workload.entries.size());

  const SteadyClock::time_point start = SteadyClock::now();
  const std::shared_ptr<const PropertyGraph> original = engine.shared_graph();
  std::unique_ptr<mutation::DeltaState> delta;
  // A `# mutate` step only records its change; the version it leads to is
  // built once, before the next query entry reads it, and booked to that
  // entry — the way the server's first reader after a burst of writes
  // pays for it. A run of k mutate steps therefore builds one version.
  bool stale = false;
  for (size_t pass = 0; pass < options.passes; ++pass) {
    if (has_mutations) {
      // Per-pass reset: every pass replays the same evolution from the
      // original graph, so per-entry cardinality — and thus `# expect` —
      // is the same on pass 1 and pass N.
      engine.SetGraph(original);
      delta.reset();
      stale = false;
    }
    for (size_t i = 0; i < workload.entries.size(); ++i) {
      const WorkloadEntry& entry = workload.entries[i];
      ReplayQueryStat& stat = report.queries[i];
      if (!entry.mutation.empty()) {
        const SteadyClock::time_point mutate_start = SteadyClock::now();
        Result<mutation::DeltaRecord> rec =
            mutation::ParseMutationCommand(entry.mutation);
        if (!rec.ok()) return rec.status();  // unreachable: parse-validated
        if (delta == nullptr) {
          delta = std::make_unique<mutation::DeltaState>(original);
        }
        mutation::DeltaRecord resolved = *rec;
        Status applied = delta->Apply(&resolved);
        if (!applied.ok()) {
          // A failed mutation poisons every later expectation — an
          // infrastructure error, not a per-query one.
          return Status(applied.code(), "workload mutation '" +
                                            entry.mutation +
                                            "' failed: " +
                                            applied.message());
        }
        stale = true;
        stat.total_us += MicrosSince(mutate_start);
        ++stat.runs;
        ++report.mutations;
        continue;
      }
      if (stale) {
        const SteadyClock::time_point build_start = SteadyClock::now();
        engine.SetGraph(std::make_shared<const PropertyGraph>(
            mutation::DeltaOverlayGraph::Apply(*delta)));
        stale = false;
        stat.total_us += MicrosSince(build_start);
        ++report.materializations;
      }
      for (size_t r = 0; r < entry.repeat; ++r) {
        ExecStats es;
        Result<PathSet> result = engine.Execute(entry.query, &es);
        ++stat.runs;
        ++report.total_runs;
        if (es.cache_hit) {
          ++stat.cache_hits;
          ++report.cache_hits;
        } else {
          ++report.cache_misses;
        }
        stat.parse_us += es.parse_us;
        stat.optimize_us += es.optimize_us;
        stat.eval_us += es.eval_us;
        stat.total_us += es.total_us;
        stat.eval.Merge(es.eval);
        if (!result.ok()) {
          if (options.fail_fast) return result.status();
          if (stat.error.ok()) stat.error = result.status();
          ++report.errors;
          continue;
        }
        stat.result_paths = result->size();
        if (first_card[i].has_value() && *first_card[i] != result->size()) {
          stat.stable_cardinality = false;
        }
        if (!first_card[i].has_value()) first_card[i] = result->size();
        if (stat.expect.has_value() && *stat.expect != result->size()) {
          stat.expect_ok = false;
        }
      }
    }
  }
  report.wall_us = MicrosSince(start);
  for (const ReplayQueryStat& stat : report.queries) {
    if (!stat.expect_ok || !stat.stable_cardinality) {
      ++report.expect_failures;
    }
  }
  return report;
}

Result<ReplayReport> ReplayWorkload(const Workload& workload,
                                    const ReplayOptions& options,
                                    const EngineOptions& engine_options) {
  PATHALG_ASSIGN_OR_RETURN(PropertyGraph g,
                           BuildWorkloadGraph(workload.graph_spec));
  QueryEngine engine(std::move(g), engine_options);
  return ReplayWorkload(engine, workload, options);
}

std::string ReplayReportToJson(const ReplayReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"pathalg-replay-v1\",\n";
  out += "  \"graph\": {\"spec\": " + JsonQuote(report.graph_spec) +
         ", \"nodes\": " + std::to_string(report.graph_nodes) +
         ", \"edges\": " + std::to_string(report.graph_edges) + "},\n";
  out += "  \"passes\": " + std::to_string(report.passes) + ",\n";
  out += "  \"threads\": " + std::to_string(report.threads) + ",\n";
  out += "  \"queries\": [\n";
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const ReplayQueryStat& q = report.queries[i];
    out += "    {\"name\": " + JsonQuote(q.name) +
           ", \"query\": " + JsonQuote(q.query) +
           (q.mutation.empty() ? ""
                               : ", \"mutation\": " + JsonQuote(q.mutation)) +
           ", \"runs\": " + std::to_string(q.runs) +
           ", \"cache_hits\": " + std::to_string(q.cache_hits) +
           ", \"parse_us\": " + std::to_string(q.parse_us) +
           ", \"optimize_us\": " + std::to_string(q.optimize_us) +
           ", \"eval_us\": " + std::to_string(q.eval_us) +
           ", \"total_us\": " + std::to_string(q.total_us) +
           ", \"result_paths\": " + std::to_string(q.result_paths) +
           ", \"plan_nodes_evaluated\": " +
           std::to_string(q.eval.nodes_evaluated) +
           ", \"peak_intermediate_paths\": " +
           std::to_string(q.eval.peak_intermediate_paths);
    if (q.expect.has_value()) {
      out += ", \"expect\": " + std::to_string(*q.expect);
    }
    out += std::string(", \"expect_ok\": ") + (q.expect_ok ? "true" : "false");
    out += std::string(", \"stable_cardinality\": ") +
           (q.stable_cardinality ? "true" : "false");
    if (!q.error.ok()) {
      out += ", \"error\": " + JsonQuote(q.error.ToString());
    }
    out += i + 1 < report.queries.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";
  out += "  \"aggregate\": {\"wall_ms\": " + Ms(report.wall_us) +
         ", \"total_runs\": " + std::to_string(report.total_runs) +
         ", \"cache_hits\": " + std::to_string(report.cache_hits) +
         ", \"cache_misses\": " + std::to_string(report.cache_misses) +
         ", \"errors\": " + std::to_string(report.errors) +
         ", \"expect_failures\": " + std::to_string(report.expect_failures) +
         ", \"mutations\": " + std::to_string(report.mutations) + "},\n";
  // compare.py-compatible rollups (same keys as the BENCH_*.json
  // aggregates): per query, total wall time and mean time per run.
  out += "  \"wall_time_ms\": {";
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const ReplayQueryStat& q = report.queries[i];
    out += (i ? ", " : "") + JsonQuote(q.name) + ": " + Ms(q.total_us);
  }
  out += "},\n";
  out += "  \"sum_iteration_time_ms\": {";
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const ReplayQueryStat& q = report.queries[i];
    const uint64_t mean_us = q.runs == 0 ? 0 : q.total_us / q.runs;
    out += (i ? ", " : "") + JsonQuote(q.name) + ": " + Ms(mean_us);
  }
  out += "}\n";
  out += "}\n";
  return out;
}

std::string ReplayReportToTable(const ReplayReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-14s %5s %5s %10s %10s %10s %10s %8s  %s\n", "query",
                "runs", "hits", "parse ms", "opt ms", "eval ms", "total ms",
                "paths", "status");
  out += line;
  for (const ReplayQueryStat& q : report.queries) {
    const char* status = !q.error.ok()               ? "ERROR"
                         : !q.expect_ok              ? "EXPECT-FAIL"
                         : !q.stable_cardinality     ? "UNSTABLE"
                                                     : "ok";
    std::snprintf(line, sizeof(line),
                  "%-14s %5zu %5zu %10s %10s %10s %10s %8zu  %s\n",
                  q.name.c_str(), q.runs, q.cache_hits,
                  Ms(q.parse_us).c_str(), Ms(q.optimize_us).c_str(),
                  Ms(q.eval_us).c_str(), Ms(q.total_us).c_str(),
                  q.result_paths, status);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %zu runs, %zu hits / %zu misses, %zu errors, "
                "%zu expect failures, %s ms wall\n",
                report.total_runs, report.cache_hits, report.cache_misses,
                report.errors, report.expect_failures,
                Ms(report.wall_us).c_str());
  out += line;
  return out;
}

}  // namespace engine
}  // namespace pathalg

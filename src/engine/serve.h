#ifndef PATHALG_ENGINE_SERVE_H_
#define PATHALG_ENGINE_SERVE_H_

/// \file serve.h
/// The line protocol behind `pathalg_serve`: one request per line in, one
/// response line out, so throughput can be driven by anything that can
/// write lines — a pipe, netcat against the TCP front-end, or a load
/// generator. Responses:
///
///   query line  ->  OK <n> paths <hit|miss> parse=<us>us opt=<us>us
///                   eval=<us>us total=<us>us
///   error       ->  ERR <code>: <message>            (always one line)
///   !command    ->  one or more lines, last one "OK ..." or "ERR ..."
///
/// Commands: `!help`, `!stats` (session aggregates + plan-cache counters),
/// `!graph <spec>` (swap the session graph; clears the plan cache),
/// `!cache clear`, `!quit`. The protocol is intentionally dumb —
/// stateless, textual, no framing — so a smoke test is `printf ... |
/// pathalg_serve`.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "engine/query_engine.h"

namespace pathalg {
namespace engine {

struct ServeResult {
  size_t requests = 0;  // non-empty lines handled
  size_t ok = 0;        // responses that began with "OK"
  size_t errors = 0;    // responses that began with "ERR"
};

/// Per-session knobs for the line protocol (the concurrent server's
/// sessions own one each; the `!timing` command flips `timings`).
struct ServeOptions {
  /// Include the cache hit/miss token and the per-stage microsecond
  /// fields in OK query responses. With timings off a query answers
  /// exactly "OK <n> paths" — a *deterministic* response, which is what
  /// the server's byte-identity contract (concurrent session ≡ serial
  /// single-client run) is asserted against: wall timings and shared
  /// plan-cache hit/miss legitimately vary across runs, path counts and
  /// errors never do.
  bool timings = true;
  /// Observes every query line after execution (commands are not
  /// queries). The server's live workload recorder hangs off this. May
  /// be empty.
  std::function<void(std::string_view query, const Result<PathSet>& result)>
      query_observer;
};

/// Handles one request line (no trailing newline), appending one or more
/// response lines (each '\n'-terminated) to `out`. Returns false when the
/// session should end (`!quit`). Empty/whitespace lines are ignored.
bool HandleRequestLine(QueryEngine& engine, const std::string& line,
                       std::string* out, ServeResult* result,
                       const ServeOptions& options = {});

/// The session-stats block of the `!stats` response ("STAT ..." lines,
/// one per category, no trailing OK). Exported so the concurrent server
/// can append its catalog/session/pool counters before the OK line.
std::string StatsLines(const QueryEngine& engine);

/// Flattens newlines to spaces — the protocol is one line per response,
/// but Status messages (parser diagnostics) may span lines. Exported for
/// the concurrent server's error paths, so the one-line invariant has a
/// single implementation.
std::string OneLine(std::string s);

}  // namespace engine
}  // namespace pathalg

#endif  // PATHALG_ENGINE_SERVE_H_

#include "engine/serve.h"

#include "common/str_util.h"
#include "engine/workload_file.h"

namespace pathalg {
namespace engine {

std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::string StatsLines(const QueryEngine& engine) {
  const SessionStats& s = engine.session_stats();
  const PlanCacheStats c = engine.cache().stats();
  std::string out;
  out += "STAT queries=" + std::to_string(s.queries) +
         " errors=" + std::to_string(s.errors) +
         " paths=" + std::to_string(s.paths_produced) + "\n";
  out += "STAT parse_us=" + std::to_string(s.parse_us) +
         " optimize_us=" + std::to_string(s.optimize_us) +
         " eval_us=" + std::to_string(s.eval_us) +
         " total_us=" + std::to_string(s.total_us) + "\n";
  out += "STAT cache_size=" + std::to_string(engine.cache().size()) +
         " cache_hits=" + std::to_string(c.hits) +
         " cache_misses=" + std::to_string(c.misses) +
         " cache_evictions=" + std::to_string(c.evictions) + "\n";
  out += "STAT graph_nodes=" + std::to_string(engine.graph().num_nodes()) +
         " graph_edges=" + std::to_string(engine.graph().num_edges()) + "\n";
  return out;
}

namespace {

bool HandleCommand(QueryEngine& engine, std::string_view cmd,
                   std::string* out, ServeResult* result) {
  std::string_view rest;
  auto is = [&](std::string_view name) {
    if (cmd == name) {
      rest = {};
      return true;
    }
    if (StartsWith(cmd, std::string(name) + " ")) {
      rest = StripWhitespace(cmd.substr(name.size()));
      return true;
    }
    return false;
  };
  if (is("!quit")) {
    *out += "OK bye\n";
    ++result->ok;
    return false;
  }
  if (is("!help")) {
    *out +=
        "HELP one query per line; directives: !help !stats !cache clear "
        "!graph <spec> !quit\n";
    *out += "OK help\n";
    ++result->ok;
    return true;
  }
  if (is("!stats")) {
    *out += StatsLines(engine);
    *out += "OK stats\n";
    ++result->ok;
    return true;
  }
  if (is("!cache") && rest == "clear") {
    engine.cache().Clear();
    *out += "OK cache cleared\n";
    ++result->ok;
    return true;
  }
  if (is("!graph")) {
    Result<PropertyGraph> g = BuildWorkloadGraph(rest);
    if (!g.ok()) {
      *out += "ERR " + OneLine(g.status().ToString()) + "\n";
      ++result->errors;
      return true;
    }
    engine.ResetGraph(std::move(g).value());
    *out += "OK graph " + std::to_string(engine.graph().num_nodes()) +
            " nodes " + std::to_string(engine.graph().num_edges()) +
            " edges\n";
    ++result->ok;
    return true;
  }
  *out += "ERR Invalid argument: unknown command '" + std::string(cmd) +
          "' (try !help)\n";
  ++result->errors;
  return true;
}

}  // namespace

bool HandleRequestLine(QueryEngine& engine, const std::string& line,
                       std::string* out, ServeResult* result,
                       const ServeOptions& options) {
  std::string_view trimmed = StripWhitespace(line);
  if (trimmed.empty()) return true;
  ++result->requests;
  if (trimmed[0] == '!') {
    return HandleCommand(engine, trimmed, out, result);
  }
  ExecStats stats;
  Result<PathSet> r = engine.Execute(trimmed, &stats);
  if (options.query_observer) options.query_observer(trimmed, r);
  if (!r.ok()) {
    *out += "ERR " + OneLine(r.status().ToString()) + "\n";
    ++result->errors;
    return true;
  }
  *out += "OK " + std::to_string(r->size()) + " paths";
  if (options.timings) {
    *out += std::string(" ") + (stats.cache_hit ? "hit" : "miss") +
            " parse=" + std::to_string(stats.parse_us) +
            "us opt=" + std::to_string(stats.optimize_us) +
            "us eval=" + std::to_string(stats.eval_us) +
            "us total=" + std::to_string(stats.total_us) + "us";
  }
  *out += "\n";
  ++result->ok;
  return true;
}

}  // namespace engine
}  // namespace pathalg

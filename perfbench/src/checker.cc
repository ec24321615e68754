#include "checker.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "engine/workload_file.h"
#include "mutation/delta_log.h"
#include "mutation/overlay.h"

namespace perfbench {

using pathalg::PathSet;
using pathalg::PropertyGraph;
using pathalg::Result;
using pathalg::Status;

bool ParseQueryCount(const std::string& response, size_t* n) {
  if (response.compare(0, 3, "OK ") != 0) return false;
  size_t pos = 3;
  size_t value = 0;
  const size_t digits_start = pos;
  while (pos < response.size() && response[pos] >= '0' &&
         response[pos] <= '9') {
    value = value * 10 + static_cast<size_t>(response[pos] - '0');
    ++pos;
  }
  if (pos == digits_start) return false;
  if (response.compare(pos, 6, " paths") != 0) return false;
  *n = value;
  return true;
}

bool QueryResponseMatches(const std::string& response, size_t expected) {
  size_t n = 0;
  return ParseQueryCount(response, &n) && n == expected;
}

bool MutateResponseOk(const std::string& response) {
  return response.compare(0, 10, "OK mutate ") == 0;
}

pathalg::engine::EngineOptions SpecEngineOptions() {
  pathalg::engine::EngineOptions options;
  options.query.eval.engine = pathalg::PhiEngine::kNaive;
  options.query.eval.fuse_closures = false;
  options.query.eval.threads = 1;
  return options;
}

Result<PropertyGraph> ReferenceGraph(
    const std::shared_ptr<const PropertyGraph>& base,
    const std::vector<std::string>& mutations) {
  pathalg::mutation::DeltaState state(base);
  for (const std::string& text : mutations) {
    PATHALG_ASSIGN_OR_RETURN(pathalg::mutation::DeltaRecord rec,
                             pathalg::mutation::ParseMutationCommand(text));
    PATHALG_RETURN_NOT_OK(state.Apply(&rec));
  }
  return pathalg::mutation::DeltaOverlayGraph::RebuildReference(state);
}

Result<Pinned> ComputePins(const std::shared_ptr<const PropertyGraph>& base,
                           const std::vector<std::string>& queries,
                           bool keep_paths) {
  pathalg::engine::QueryEngine engine(base, SpecEngineOptions());
  Pinned out;
  for (const std::string& query : queries) {
    Result<PathSet> r = engine.Execute(query);
    if (!r.ok()) {
      return Status::Internal("spec engine failed on '" + query +
                              "': " + r.status().ToString());
    }
    out.counts.push_back(r->size());
    if (keep_paths) out.paths.push_back(std::move(r).value());
  }
  return out;
}

Result<std::vector<size_t>> ComputePinCountsIsolated(
    const std::string& graph_spec, const std::vector<std::string>& queries) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    std::string payload;
    Result<PropertyGraph> g = pathalg::engine::BuildWorkloadGraph(graph_spec);
    Result<Pinned> pinned =
        g.ok() ? ComputePins(std::make_shared<const PropertyGraph>(
                                 std::move(g).value()),
                             queries, false)
               : Result<Pinned>(g.status());
    if (pinned.ok()) {
      for (size_t c : pinned->counts) payload += std::to_string(c) + "\n";
    } else {
      payload = "ERR " + pinned.status().ToString() + "\n";
    }
    size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n = write(fds[1], payload.data() + off,
                              payload.size() - off);
      if (n <= 0) _exit(1);
      off += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string payload;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    payload.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("pin child process failed");
  }
  if (payload.compare(0, 4, "ERR ") == 0) {
    return Status::Internal(payload.substr(4));
  }
  std::vector<size_t> counts;
  size_t pos = 0;
  while (pos < payload.size()) {
    const size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) break;
    counts.push_back(
        static_cast<size_t>(std::strtoull(payload.c_str() + pos, nullptr, 10)));
    pos = nl + 1;
  }
  if (counts.size() != queries.size()) {
    return Status::Internal("pin child returned " +
                            std::to_string(counts.size()) + " of " +
                            std::to_string(queries.size()) + " counts");
  }
  return counts;
}

}  // namespace perfbench

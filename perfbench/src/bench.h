#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// \file bench.h
/// Pieces shared by the closed-loop load generator (load.cc), the traced
/// layer ladder (ladder.cc) and the entry point (main.cc).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "generator.h"
#include "graph/property_graph.h"
#include "server/graph_catalog.h"
#include "server/session.h"
#include "server/tcp_server.h"

namespace perfbench {

/// One running server stack: GraphCatalog -> SessionManager ->
/// TcpServer, on a loopback port the kernel picks.
struct Stack {
  Stack() = default;
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stops the listener and releases the catalog. Idempotent.
  void Shutdown();

  std::string spec;
  /// Journal + compacted-base directory; empty for a read-only catalog.
  std::string mutation_dir;
  std::unique_ptr<pathalg::server::GraphCatalog> catalog;
  std::unique_ptr<pathalg::server::SessionManager> manager;
  std::unique_ptr<pathalg::server::TcpServer> tcp;
  pathalg::server::CatalogEntryPtr entry;
};

/// The catalog defaults, except that a journaled graph (`mutation_dir`
/// set) compacts inline: the write that crosses the threshold of 64
/// pending records folds the delta before it is acknowledged, so exactly
/// one write in 64 carries a compaction and no compaction overlaps
/// another write (see NOTES.md).
pathalg::server::GraphCatalogOptions CatalogOptions(
    const std::string& mutation_dir);

/// A stack as `setup_s` measures it: catalog Get of `spec` (graph build,
/// plus live-graph open when `mutation_dir` is set), session manager, and
/// the TCP listener when `with_tcp`. `catalog_get_us`, when non-null,
/// receives the Get's share.
pathalg::Result<std::unique_ptr<Stack>> StartStack(
    const std::string& spec, const std::string& mutation_dir, bool with_tcp,
    double* catalog_get_us);

/// Creates `dir` (one level) after removing any leftover tree there.
bool FreshDir(const std::string& dir);
void RemoveTree(const std::string& dir);

/// One timed request.
struct Sample {
  /// Completion time, seconds since the timed start.
  double done_s = 0;
  /// Round-trip latency.
  double ms = 0;
  uint16_t cls = 0;
};

/// What a closed loop measured.
struct LoopResult {
  /// Every timed request, per session in completion order, sessions
  /// concatenated.
  std::vector<Sample> samples;
  size_t attempted = 0;
  size_t failed = 0;
  /// Stream position each session reached (warm-up included).
  std::vector<size_t> sent;
  std::vector<std::string> errors;
};

struct LoopConfig {
  uint16_t port = 0;
  double seconds = 1;
  /// Before the clock starts: every distinct read text once (when set),
  /// then the first `warmup` stream requests.
  bool warm_distinct = false;
  size_t warmup = 0;
  /// Stream position each session resumes at (empty = all at 0).
  std::vector<size_t> start;
};

/// Drives one client per stream over loopback sockets in a closed loop
/// (next request only after the previous response), checking every
/// response against `expected[session][pin]`. Streams are replayed
/// cyclically.
LoopResult RunClosedLoop(const LoopConfig& config,
                         const std::vector<Stream>& streams,
                         const std::vector<std::vector<size_t>>& expected);

/// Sends `writes` (full `!mutate` lines) over one client and times each
/// acknowledgement; failures are counted and described.
void RunWrites(uint16_t port, const std::vector<std::string>& writes,
               std::vector<Sample>* samples, size_t* attempted,
               size_t* failed, std::vector<std::string>* errors);

/// The durability checks of a mutable stack after its writes: `!version`
/// must equal the content-addressed id of the reference rebuild of
/// `base` + `writes` (mutation texts), and after the stack is shut down a
/// fresh GraphCatalog over the same mutation directory must recover that
/// same version. Shuts `stack` down. Returns the failures found.
std::vector<std::string> CheckVersionAndRecovery(
    Stack* stack, const std::shared_ptr<const pathalg::PropertyGraph>& base,
    const std::vector<std::string>& writes);

/// Name -> value of the per-layer metrics (traced run).
using MetricMap = std::map<std::string, double>;

struct LadderInput {
  WorkloadDef def;
  uint64_t seed = 0;
  double seconds = 1;
  std::string data_dir;
  std::vector<Stream> streams;
  /// Spec-engine answers per session and pin.
  std::vector<std::vector<pathalg::PathSet>> pinned_paths;
  /// The workload's graph, built from its spec.
  std::shared_ptr<const pathalg::PropertyGraph> base;
  /// The served stack of the workload, already set up.
  Stack* stack = nullptr;
  /// The write probe's journaled stack over ProbeGraphSpec(), unwritten,
  /// and the `!mutate` lines to send down the write ladder.
  Stack* probe = nullptr;
  std::vector<std::string> probe_writes;
  /// Medians of the set-up repetitions (µs).
  double catalog_get_us = 0;
  double graph_build_us = 0;
};

struct LadderResult {
  MetricMap metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  /// Printed report lines (per-class medians and so on).
  std::vector<std::string> report;
};

/// The traced run: an untraced single-client loop, then the same request
/// stream replayed down the layer ladder with spans, the write probe
/// down the write ladder, and the budget-refusal probe.
LadderResult RunLadder(const LadderInput& input);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

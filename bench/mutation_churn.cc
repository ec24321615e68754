/// bench/mutation_churn.cc — write-path economics of the live-mutation
/// subsystem: what one acknowledged mutation costs with and without the
/// fsync'd journal, what re-materializing the overlay after a write adds
/// to the next query, the interleaved mutate/query churn a mutable served
/// graph actually experiences (directly and through a server session),
/// periodic compaction, and crash-recovery replay of a journal tail.
///
/// The artifact section pins the PR 10 acceptance facts on a scaled
/// social graph:
///   * the overlay merge and the from-scratch reference rebuild agree
///     byte-for-byte, and the live version id is exactly the
///     content-addressed checksum of the merged graph;
///   * compaction preserves the version id while folding the journal
///     tail into the base snapshot (pending drops to 0);
///   * a reopen over the compacted state — and a reopen over an
///     *uncompacted* journal tail (the kill-and-recover path) —
///     reproduce the pre-"crash" version id exactly;
///   * a query on the live overlay version matches the same query on the
///     reference rebuild.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "mutation/delta_log.h"
#include "mutation/live_graph.h"
#include "mutation/overlay.h"
#include "server/graph_catalog.h"
#include "server/session.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace pathalg {
namespace bench {
namespace {

constexpr size_t kPersons = 400;
constexpr size_t kChurn = 64;  // mutations in the artifact/recovery tails
constexpr const char* kQuery = "MATCH ANY SHORTEST p = (?x)-[:Knows+]->(?y)";

const std::string& JournalPath() {
  static const std::string path = "mutation_churn_bench.journal";
  return path;
}
const std::string& BasePath() {
  static const std::string path = "mutation_churn_bench.base.snap";
  return path;
}

std::shared_ptr<const PropertyGraph> BaseGraph() {
  static const std::shared_ptr<const PropertyGraph> g =
      std::make_shared<const PropertyGraph>(ScaledSocialGraph(kPersons));
  return g;
}

/// The deterministic churn script: mostly Knows edges between random
/// persons (auto node names are n1..n<kPersons>), some fresh nodes, an
/// occasional removal — the mix a mutable social graph sees.
std::vector<std::string> ChurnScript(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> cmds;
  size_t fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t roll = rng() % 10;
    const std::string a = "n" + std::to_string(1 + rng() % kPersons);
    const std::string b = "n" + std::to_string(1 + rng() % kPersons);
    if (roll < 6) {
      cmds.push_back("add-edge " + a + " " + b + " label=Knows");
    } else if (roll < 8) {
      cmds.push_back("add-node churn" + std::to_string(++fresh) +
                     " label=Person");
    } else if (fresh > 0 && roll == 8) {
      cmds.push_back("rm-node churn" + std::to_string(fresh--));
    } else {
      cmds.push_back("add-edge " + a + " " + b + " label=Likes");
    }
  }
  return cmds;
}

mutation::DeltaRecord MustParse(const std::string& cmd) {
  Result<mutation::DeltaRecord> rec = mutation::ParseMutationCommand(cmd);
  Check(rec.ok(), "churn command failed to parse");
  return *rec;
}

std::shared_ptr<mutation::LiveGraph> OpenLive(bool journaled) {
  mutation::LiveGraphOptions opts;
  if (journaled) {
    opts.journal_path = JournalPath();
    opts.base_snapshot_path = BasePath();
  }
  // Same contract the server's GraphCatalog honors: when a compacted
  // base snapshot exists on disk it IS the base; the from-spec build is
  // only the root version.
  std::shared_ptr<const PropertyGraph> base = BaseGraph();
  if (journaled) {
    Result<PropertyGraph> on_disk = storage::SnapshotReader::Open(BasePath());
    if (on_disk.ok()) {
      base = std::make_shared<const PropertyGraph>(std::move(*on_disk));
    }
  }
  Result<std::shared_ptr<mutation::LiveGraph>> live =
      mutation::LiveGraph::Open(std::move(base), std::move(opts));
  Check(live.ok(), "LiveGraph::Open failed");
  return *live;
}

void RemoveLiveFiles() {
  std::remove(JournalPath().c_str());
  std::remove((JournalPath() + ".next").c_str());
  std::remove((JournalPath() + ".stale").c_str());
  std::remove(BasePath().c_str());
}

size_t CountPaths(const std::shared_ptr<const PropertyGraph>& g) {
  engine::QueryEngine qe{PropertyGraph(*g)};
  Result<PathSet> r = qe.Execute(kQuery);
  Check(r.ok(), "churn query failed");
  return r->size();
}

void PrintArtifact() {
  PrintHeader("live-mutation churn: overlay, compaction, recovery (PR 10)");
  RemoveLiveFiles();
  const std::vector<std::string> script = ChurnScript(kChurn, 2025);

  auto live = OpenLive(true);
  const uint64_t base_id = live->VersionId();
  mutation::DeltaState mirror(BaseGraph());
  for (const std::string& cmd : script) {
    const mutation::DeltaRecord rec = MustParse(cmd);
    Check(live->Mutate(rec).ok(), "live mutate failed");
    mutation::DeltaRecord resolved = rec;
    Check(mirror.Apply(&resolved).ok(), "mirror apply failed");
  }
  Check(live->counters().mutations_applied == kChurn,
        "mutation count drifted");
  Check(live->counters().pending == kChurn, "journal tail count drifted");

  // Overlay merge ≡ reference rebuild, and the version id is the
  // content-addressed checksum of exactly that graph.
  const PropertyGraph merged = mutation::DeltaOverlayGraph::Apply(mirror);
  const PropertyGraph rebuilt =
      mutation::DeltaOverlayGraph::RebuildReference(mirror);
  Check(storage::SnapshotWriter::Serialize(merged) ==
            storage::SnapshotWriter::Serialize(rebuilt),
        "overlay merge != reference rebuild");
  const uint64_t churn_id = live->VersionId();
  Check(churn_id == storage::SnapshotWriter::VersionId(merged),
        "live version id is not the merged graph's checksum");
  Check(churn_id != base_id, "churn did not change the version id");

  // Query on the live overlay version ≡ query on the reference rebuild.
  const size_t live_paths = CountPaths(live->Current());
  Check(live_paths ==
            CountPaths(std::make_shared<const PropertyGraph>(
                PropertyGraph(rebuilt))),
        "overlay query disagrees with rebuilt query");

  // Kill-and-recover over the *uncompacted* journal tail: a fresh open
  // replays all kChurn records and lands on the same version id.
  live = OpenLive(true);
  Check(live->counters().recovered_records == kChurn,
        "recovery replayed the wrong record count");
  Check(live->VersionId() == churn_id,
        "journal recovery lost the pre-crash version id");

  // Compaction folds the tail, preserves the id, and survives reopen.
  Check(live->Compact().ok(), "compaction failed");
  Check(live->counters().pending == 0, "compaction left pending records");
  Check(live->VersionId() == churn_id, "compaction changed the version id");
  live = OpenLive(true);
  Check(live->counters().recovered_records == 0,
        "compacted journal still replayed records");
  Check(live->VersionId() == churn_id,
        "reopen after compaction lost the version id");

  std::printf("graph: social persons=%zu -> %zu nodes, %zu edges\n",
              kPersons, BaseGraph()->num_nodes(), BaseGraph()->num_edges());
  std::printf("churn: %zu mutations, version %016llx -> %016llx\n", kChurn,
              static_cast<unsigned long long>(base_id),
              static_cast<unsigned long long>(churn_id));
  std::printf("query `%s`: %zu paths on the live overlay\n", kQuery,
              live_paths);
  RemoveLiveFiles();
}

/// One acknowledged mutation, no durability (the pure DeltaState cost).
void BM_MutateInMemory(benchmark::State& state) {
  auto live = OpenLive(false);
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    const std::string a = "n" + std::to_string(1 + rng() % kPersons);
    const std::string b = "n" + std::to_string(1 + rng() % kPersons);
    Check(live->Mutate(MustParse("add-edge " + a + " " + b +
                                 " label=Knows"))
              .ok(),
          "mutate failed");
  }
}
BENCHMARK(BM_MutateInMemory)->Unit(benchmark::kMicrosecond);

/// One acknowledged mutation through the fsync'd journal (the durability
/// premium a served `!mutate` pays).
void BM_MutateJournaled(benchmark::State& state) {
  RemoveLiveFiles();
  auto live = OpenLive(true);
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    const std::string a = "n" + std::to_string(1 + rng() % kPersons);
    const std::string b = "n" + std::to_string(1 + rng() % kPersons);
    Check(live->Mutate(MustParse("add-edge " + a + " " + b +
                                 " label=Knows"))
              .ok(),
          "mutate failed");
  }
  RemoveLiveFiles();
}
BENCHMARK(BM_MutateJournaled)->Unit(benchmark::kMicrosecond);

/// Mutate + re-materialize the current version: the worst-case cost the
/// *next* query after a write observes (the overlay cache is
/// invalidated, so Current() rebuilds the merged CSR graph).
void BM_MutateAndMaterialize(benchmark::State& state) {
  auto live = OpenLive(false);
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    const std::string a = "n" + std::to_string(1 + rng() % kPersons);
    const std::string b = "n" + std::to_string(1 + rng() % kPersons);
    Check(live->Mutate(MustParse("add-edge " + a + " " + b +
                                 " label=Knows"))
              .ok(),
          "mutate failed");
    benchmark::DoNotOptimize(live->Current()->num_edges());
  }
}
BENCHMARK(BM_MutateAndMaterialize)->Unit(benchmark::kMillisecond);

/// The served churn mix end to end: mutate, republish, query through a
/// QueryEngine session (plan-cache warm, graph token fresh per version).
void BM_ChurnQueryMix(benchmark::State& state) {
  auto live = OpenLive(false);
  engine::QueryEngine qe{PropertyGraph(*BaseGraph())};
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    const std::string a = "n" + std::to_string(1 + rng() % kPersons);
    const std::string b = "n" + std::to_string(1 + rng() % kPersons);
    Check(live->Mutate(MustParse("add-edge " + a + " " + b +
                                 " label=Knows"))
              .ok(),
          "mutate failed");
    qe.SetGraph(live->Current());
    Result<PathSet> r = qe.Execute(kQuery);
    Check(r.ok(), "churn query failed");
    benchmark::DoNotOptimize(r->size());
  }
}
BENCHMARK(BM_ChurnQueryMix)->Unit(benchmark::kMillisecond);

/// A served session on a mutable catalog entry whose journal lives on
/// tmpfs, where fsync costs nothing: the `!mutate` write path minus the
/// durability premium BM_MutateJournaled measures. Compaction is off, so
/// every iteration does the same work.
class InMemorySession {
 public:
  InMemorySession() : catalog_(Options()), manager_(&catalog_, {}) {
    Result<std::unique_ptr<server::ServerSession>> s = manager_.Open(kSpec);
    Check(s.ok(), "session open failed");
    session_ = std::move(s).value();
    Line("!timing off");
  }
  ~InMemorySession() {
    session_.reset();
    RemoveDir();
  }

  /// Sends one line; returns the response.
  const std::string& Line(const std::string& line) {
    out_.clear();
    session_->HandleLine(line, &out_);
    return out_;
  }

  /// The next write of a net-zero stream: even writes add a named Knows
  /// edge between random persons, odd writes remove it again, so the
  /// live graph never drifts from the base.
  void Write() {
    const uint64_t w = writes_++;
    std::string cmd;
    if (w % 2 == 0) {
      const std::string a = "n" + std::to_string(1 + rng_() % kPersons);
      const std::string b = "n" + std::to_string(1 + rng_() % kPersons);
      cmd = "!mutate add-edge " + a + " " + b + " label=Knows name=s" +
            std::to_string(w / 2);
    } else {
      cmd = "!mutate rm-edge s" + std::to_string(w / 2);
    }
    Check(Line(cmd).rfind("OK mutate ", 0) == 0, "session write refused");
  }

  void Query() {
    Check(Line(kReadQuery).rfind("OK ", 0) == 0, "session query failed");
  }

 private:
  // The graph ScaledSocialGraph(kPersons) builds, as a catalog spec.
  static constexpr const char* kSpec =
      "social persons=400 messages=800 ring=2 chords=400 likes=2 seed=7";
  static constexpr const char* kReadQuery =
      "MATCH ALL WALK p = (?x {name:\"person0\"})-[:Knows]->(?y)";

  static std::string Dir() {
    struct stat st {};
    const bool shm = stat("/dev/shm", &st) == 0 && S_ISDIR(st.st_mode);
    return shm ? "/dev/shm/pathalg_mutation_churn_bench"
               : "mutation_churn_bench.d";
  }
  static void RemoveDir() {
    const std::string dir = Dir();
    if (DIR* d = opendir(dir.c_str())) {
      while (dirent* e = readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") {
          std::remove((dir + "/" + name).c_str());
        }
      }
      closedir(d);
    }
    rmdir(dir.c_str());
  }
  static server::GraphCatalogOptions Options() {
    RemoveDir();  // never recover a previous run's journal
    server::GraphCatalogOptions o;
    o.mutation_dir = Dir();
    o.mutation_compact_threshold = 0;
    return o;
  }

  server::GraphCatalog catalog_;
  server::SessionManager manager_;
  std::unique_ptr<server::ServerSession> session_;
  std::string out_;
  std::mt19937_64 rng_{7};
  uint64_t writes_ = 0;
};

/// k `!mutate` lines, then one query line, through an in-process session.
/// An acknowledged write publishes nothing, so the burst pays one version
/// materialization — on the query — instead of k. k=1 is strict
/// write/query alternation: ack_us and read_us split each pair between
/// the write acknowledgements and the query that follows them.
void BM_SessionWritesThenQuery(benchmark::State& state) {
  InMemorySession s;
  const int64_t k = state.range(0);
  double ack_us = 0;
  double read_us = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < k; ++i) s.Write();
    const auto t1 = std::chrono::steady_clock::now();
    s.Query();
    const auto t2 = std::chrono::steady_clock::now();
    ack_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
    read_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
  }
  state.counters["ack_us"] =
      benchmark::Counter(ack_us, benchmark::Counter::kAvgIterations);
  state.counters["read_us"] =
      benchmark::Counter(read_us, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SessionWritesThenQuery)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Eight journaled mutations + one compaction: the steady-state cost of
/// keeping the recovery tail short.
void BM_CompactEvery8(benchmark::State& state) {
  RemoveLiveFiles();
  auto live = OpenLive(true);
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    for (int i = 0; i < 8; ++i) {
      const std::string a = "n" + std::to_string(1 + rng() % kPersons);
      const std::string b = "n" + std::to_string(1 + rng() % kPersons);
      Check(live->Mutate(MustParse("add-edge " + a + " " + b +
                                   " label=Knows"))
                .ok(),
            "mutate failed");
    }
    Check(live->Compact().ok(), "compaction failed");
  }
  RemoveLiveFiles();
}
BENCHMARK(BM_CompactEvery8)->Unit(benchmark::kMillisecond);

/// Crash recovery: reopen a live graph whose journal carries a
/// kChurn-record tail (replay + version rebind, no compaction).
void BM_RecoveryReplay(benchmark::State& state) {
  RemoveLiveFiles();
  {
    auto writer = OpenLive(true);
    for (const std::string& cmd : ChurnScript(kChurn, 2025)) {
      Check(writer->Mutate(MustParse(cmd)).ok(), "tail write failed");
    }
  }
  for (auto _ : state) {
    auto live = OpenLive(true);
    Check(live->counters().recovered_records == kChurn, "short replay");
    benchmark::DoNotOptimize(live->VersionId());
  }
  RemoveLiveFiles();
}
BENCHMARK(BM_RecoveryReplay)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace pathalg

int main(int argc, char** argv) {
  const int rc =
      pathalg::bench::BenchMain(argc, argv, pathalg::bench::PrintArtifact);
  pathalg::bench::RemoveLiveFiles();
  return rc;
}

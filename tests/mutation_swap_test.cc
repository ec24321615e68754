// Readers-during-swap suite for the live-mutation subsystem, written to
// run under TSan: concurrent server sessions keep querying one mutable
// catalog entry while a writer session streams mutations through it and
// background compaction rebuilds + republishes base snapshots underneath.
// The MVCC contract under test:
//
//  - a session's in-flight query runs on the version it pinned, so every
//    response is byte-identical to the response some *published* version
//    gives — never a half-applied delta or a half-swapped snapshot;
//  - a version pinned before a compaction-driven swap is bit-stable
//    across it;
//  - sessions opened after the swap see the new version (and the same
//    content-addressed id the offline replay of the mutation history
//    predicts).

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mutation/delta_log.h"
#include "mutation/live_graph.h"
#include "mutation/overlay.h"
#include "server/graph_catalog.h"
#include "server/session.h"
#include "storage/snapshot_writer.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

/// Removes every regular file in `dir` and then the directory itself, so
/// a rerun of the binary never recovers the previous run's journals.
void RemoveDirShallow(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::remove((dir + "/" + name).c_str());
  }
  closedir(d);
  rmdir(dir.c_str());
}

std::string FreshMutationDir(const std::string& stem) {
  std::string dir = ::testing::TempDir() + "pathalg_mutation_swap_" + stem;
  RemoveDirShallow(dir);
  return dir;
}

std::string VersionHex(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// The served graph and the mutation history every test replays: a Knows
// 6-cycle, three fresh nodes, then Knows edges closing them into a second
// cycle — each step changes the TRAIL Knows+ answer set.
constexpr const char* kSpec = "cycle n=6";
constexpr const char* kQuery = "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)";

const std::vector<std::string> kMutations = {
    "add-node w1", "add-node w2",       "add-node w3",
    "add-edge w1 w2 label=Knows",       "add-edge w2 w3 label=Knows",
    "add-edge w3 w1 label=Knows",
};

/// Opens one session on `spec`, turns timing off (responses become
/// deterministic), then returns the per-line responses for `lines`.
std::vector<std::string> RunLines(server::SessionManager& manager,
                                  const std::string& spec,
                                  const std::vector<std::string>& lines) {
  auto session = manager.Open(spec);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  std::vector<std::string> responses;
  if (!session.ok()) return responses;
  std::string sink;
  (*session)->HandleLine("!timing off", &sink);
  for (const std::string& line : lines) {
    std::string out;
    (*session)->HandleLine(line, &out);
    responses.push_back(std::move(out));
  }
  return responses;
}

/// Every version the mutation history can publish (prefix states 0..N),
/// materialized offline through the same overlay merge the server uses.
std::vector<std::shared_ptr<const PropertyGraph>> PrefixVersions(
    const std::shared_ptr<const PropertyGraph>& base) {
  std::vector<std::shared_ptr<const PropertyGraph>> versions;
  versions.push_back(base);
  mutation::DeltaState state(base);
  for (const std::string& cmd : kMutations) {
    auto rec = mutation::ParseMutationCommand(cmd);
    EXPECT_TRUE(rec.ok()) << cmd;
    mutation::DeltaRecord resolved = *rec;
    EXPECT_TRUE(state.Apply(&resolved).ok()) << cmd;
    versions.push_back(std::make_shared<const PropertyGraph>(
        mutation::DeltaOverlayGraph::Apply(state)));
  }
  return versions;
}

/// The response each published version gives for kQuery, computed through
/// an ordinary read-only serving path (snapshot spec → session), so the
/// race assertion below compares full response bytes, not a summary.
std::vector<std::string> ExpectedResponses(
    const std::vector<std::shared_ptr<const PropertyGraph>>& versions,
    const std::string& stem) {
  server::GraphCatalog read_catalog;
  server::SessionManager read_manager(&read_catalog, {});
  std::vector<std::string> expected;
  for (size_t i = 0; i < versions.size(); ++i) {
    const std::string path = ::testing::TempDir() + "pathalg_mutation_swap_" +
                             stem + "_v" + std::to_string(i) + ".snap";
    EXPECT_TRUE(storage::SnapshotWriter::Write(*versions[i], path).ok());
    std::vector<std::string> r =
        RunLines(read_manager, "snapshot " + path, {kQuery});
    EXPECT_EQ(r.size(), 1u);
    if (r.size() == 1) expected.push_back(r[0]);
    std::remove(path.c_str());
  }
  return expected;
}

TEST(MutationSwapStress, ReadersSeeOnlyPublishedVersionBytes) {
  const std::string dir = FreshMutationDir("readers");
  server::GraphCatalogOptions copts;
  copts.mutation_dir = dir;
  copts.mutation_compact_threshold = 2;  // several swaps over 6 mutations
  copts.mutation_background_compaction = true;
  server::GraphCatalog catalog(copts);
  server::SessionManager manager(&catalog, {});

  auto entry = catalog.Get(kSpec);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  ASSERT_NE((*entry)->live, nullptr);
  const std::shared_ptr<const PropertyGraph> base = (*entry)->live->Current();

  const auto versions = PrefixVersions(base);
  const std::vector<std::string> expected_list =
      ExpectedResponses(versions, "readers");
  ASSERT_EQ(expected_list.size(), kMutations.size() + 1);
  const std::set<std::string> expected(expected_list.begin(),
                                       expected_list.end());
  // The mutations must actually change the answer, or the byte-identity
  // assertion below would be vacuous.
  ASSERT_GT(expected.size(), 1u);

  // 4 reader sessions hammer the query while one writer session streams
  // the mutation history (yielding between steps to widen the window).
  std::mutex mu;
  std::vector<std::string> bad;
  auto reader = [&]() {
    auto session = manager.Open(kSpec);
    if (!session.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      bad.push_back("open failed: " + session.status().ToString());
      return;
    }
    std::string sink;
    (*session)->HandleLine("!timing off", &sink);
    for (int i = 0; i < 30; ++i) {
      std::string out;
      (*session)->HandleLine(kQuery, &out);
      if (expected.count(out) == 0) {
        std::lock_guard<std::mutex> lock(mu);
        bad.push_back(out);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader);

  std::thread writer([&]() {
    auto session = manager.Open(kSpec);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (const std::string& cmd : kMutations) {
      std::string out;
      (*session)->HandleLine("!mutate " + cmd, &out);
      EXPECT_EQ(out.rfind("OK mutate ", 0), 0u) << out;
      std::this_thread::yield();
    }
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_TRUE(bad.empty())
      << bad.size() << " response(s) matched no published version; first:\n"
      << bad.front();

  // Quiesce: wait out any detached compaction, then fold the remainder
  // synchronously. Compaction must preserve the version id.
  while ((*entry)->live->compaction_in_flight()) usleep(1000);
  ASSERT_TRUE((*entry)->live->Compact().ok());
  EXPECT_EQ((*entry)->live->VersionId(),
            storage::SnapshotWriter::VersionId(*versions.back()));
  EXPECT_GE((*entry)->live->counters().compactions, 1u);
  EXPECT_EQ((*entry)->live->counters().pending, 0u);
}

TEST(MutationSwapStress, PinnedVersionBytesStableAcrossCompaction) {
  const std::string dir = FreshMutationDir("pinned");
  server::GraphCatalogOptions copts;
  copts.mutation_dir = dir;
  server::GraphCatalog catalog(copts);

  auto entry = catalog.Get(kSpec);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  auto live = (*entry)->live;
  ASSERT_NE(live, nullptr);

  // Pin the pre-swap version and record its bytes.
  const std::shared_ptr<const PropertyGraph> pinned = live->Current();
  const std::string pinned_bytes = storage::SnapshotWriter::Serialize(*pinned);
  const uint64_t pinned_id = live->VersionId();

  for (const std::string& cmd : kMutations) {
    auto rec = mutation::ParseMutationCommand(cmd);
    ASSERT_TRUE(rec.ok());
    ASSERT_TRUE(live->Mutate(*rec).ok()) << cmd;
  }
  ASSERT_TRUE(live->Compact().ok());

  // The swap published a new version...
  EXPECT_NE(live->VersionId(), pinned_id);
  // ...while the pinned one is still byte-for-byte what it was.
  EXPECT_EQ(storage::SnapshotWriter::Serialize(*pinned), pinned_bytes);
}

TEST(MutationSwapStress, LateSessionsSeeTheNewVersion) {
  const std::string dir = FreshMutationDir("late");
  server::GraphCatalogOptions copts;
  copts.mutation_dir = dir;
  server::GraphCatalog catalog(copts);
  server::SessionManager manager(&catalog, {});

  auto entry = catalog.Get(kSpec);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  const std::shared_ptr<const PropertyGraph> base = (*entry)->live->Current();
  const auto versions = PrefixVersions(base);
  const std::vector<std::string> expected =
      ExpectedResponses(versions, "late");
  ASSERT_EQ(expected.size(), kMutations.size() + 1);

  std::vector<std::string> mutate_lines;
  for (const std::string& cmd : kMutations) {
    mutate_lines.push_back("!mutate " + cmd);
  }
  RunLines(manager, kSpec, mutate_lines);

  // A session opened after the whole history sees the final version: the
  // offline-predicted response bytes and the offline-predicted id.
  const std::vector<std::string> post =
      RunLines(manager, kSpec, {kQuery, "!version"});
  ASSERT_EQ(post.size(), 2u);
  EXPECT_EQ(post[0], expected.back());
  EXPECT_EQ(post[1],
            "OK version " +
                VersionHex(storage::SnapshotWriter::VersionId(
                    *versions.back())) +
                "\n");
}

// --- Session-level !mutate: ack bytes, read-your-writes, lazy publish -----

/// The value of `key=` in a `!stats` transcript (-1 when absent).
long long StatValue(const std::string& stats, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = stats.find(needle);
  if (at == std::string::npos) return -1;
  return std::stoll(stats.substr(at + needle.size()));
}

long long Materializations(server::ServerSession& session) {
  std::string out;
  session.HandleLine("!stats", &out);
  return StatValue(out, "materializations");
}

TEST(MutationSessionTest, AckBytesAndCountsMatchPublishedVersion) {
  const std::string dir = FreshMutationDir("ack");
  server::GraphCatalogOptions copts;
  copts.mutation_dir = dir;
  server::GraphCatalog catalog(copts);
  server::SessionManager manager(&catalog, {});
  auto entry = catalog.Get(kSpec);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  auto session = manager.Open(kSpec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Every op kind, auto names, properties, a self-loop, and cascading
  // rm-node of an added node and of a base node (n2 takes both of its
  // cycle edges along). The bytes are pinned: the counts come from the
  // delta, and must read exactly as the published version's would.
  const std::vector<std::pair<std::string, std::string>> steps = {
      {"add-node a label=Person age=3",
       "OK mutate add-node a label=Person age=3 nodes=7 edges=6\n"},
      {"add-node", "OK mutate add-node n8 nodes=8 edges=6\n"},
      {"add-edge a n1 label=Knows",
       "OK mutate add-edge a n1 label=Knows name=e7 nodes=8 edges=7\n"},
      {"add-edge n1 a label=Knows name=back w=1.5",
       "OK mutate add-edge n1 a label=Knows name=back w=1.5 nodes=8 "
       "edges=8\n"},
      {"rm-edge back", "OK mutate rm-edge back nodes=8 edges=7\n"},
      {"add-edge a a label=Knows",
       "OK mutate add-edge a a label=Knows name=e9 nodes=8 edges=8\n"},
      {"rm-node a", "OK mutate rm-node a nodes=7 edges=6\n"},
      {"rm-node n2", "OK mutate rm-node n2 nodes=6 edges=4\n"},
  };
  for (const auto& [cmd, want] : steps) {
    std::string out;
    (*session)->HandleLine("!mutate " + cmd, &out);
    EXPECT_EQ(out, want) << cmd;
    // The counts are read from the delta; they must equal the version
    // the write publishes once something reads it.
    const std::shared_ptr<const PropertyGraph> published =
        (*entry)->live->Current();
    EXPECT_NE(out.find(" nodes=" + std::to_string(published->num_nodes()) +
                       " edges=" + std::to_string(published->num_edges()) +
                       "\n"),
              std::string::npos)
        << cmd;
  }
}

TEST(MutationSessionTest, ReadYourWritesWithinAndAcrossSessions) {
  const std::string dir = FreshMutationDir("ryw");
  server::GraphCatalogOptions copts;
  copts.mutation_dir = dir;
  server::GraphCatalog catalog(copts);
  server::SessionManager manager(&catalog, {});
  auto entry = catalog.Get(kSpec);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  const auto versions = PrefixVersions((*entry)->live->Current());
  const std::vector<std::string> expected = ExpectedResponses(versions, "ryw");
  ASSERT_EQ(expected.size(), kMutations.size() + 1);

  auto writer = manager.Open(kSpec);
  auto other = manager.Open(kSpec);
  ASSERT_TRUE(writer.ok() && other.ok());
  std::string sink;
  (*writer)->HandleLine("!timing off", &sink);
  (*other)->HandleLine("!timing off", &sink);
  auto query = [](server::ServerSession& s) {
    std::string out;
    s.HandleLine(kQuery, &out);
    return out;
  };
  // Both sessions pin the starting version first, so a stale pin would
  // show as the previous version's bytes.
  EXPECT_EQ(query(**writer), expected[0]);
  EXPECT_EQ(query(**other), expected[0]);
  for (size_t i = 0; i < kMutations.size(); ++i) {
    std::string out;
    (*writer)->HandleLine("!mutate " + kMutations[i], &out);
    ASSERT_EQ(out.rfind("OK mutate ", 0), 0u) << out;
    // Alternate which session reads first: the first reader after the
    // write is the one that materializes the version.
    if (i % 2 == 0) {
      EXPECT_EQ(query(**writer), expected[i + 1]) << "writer after " << i;
      EXPECT_EQ(query(**other), expected[i + 1]) << "other after " << i;
    } else {
      EXPECT_EQ(query(**other), expected[i + 1]) << "other after " << i;
      EXPECT_EQ(query(**writer), expected[i + 1]) << "writer after " << i;
    }
  }
}

TEST(MutationSessionTest, WritesPublishOnFirstReadOnly) {
  const std::string dir = FreshMutationDir("lazy");
  server::GraphCatalogOptions copts;
  copts.mutation_dir = dir;
  copts.mutation_compact_threshold = 64;  // never reached below
  server::GraphCatalog catalog(copts);
  server::SessionManager manager(&catalog, {});
  auto session = manager.Open(kSpec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  server::ServerSession& s = **session;
  std::string out;

  const long long start = Materializations(s);
  ASSERT_GE(start, 0);
  for (int k = 0; k < 8; ++k) {
    out.clear();
    s.HandleLine("!mutate add-node", &out);
    ASSERT_EQ(out.rfind("OK mutate ", 0), 0u) << out;
  }
  EXPECT_EQ(Materializations(s), start) << "a write-only burst publishes 0";

  s.HandleLine(kQuery, &out);
  EXPECT_EQ(Materializations(s), start + 1) << "k writes + 1 query = 1";
  s.HandleLine(kQuery, &out);
  EXPECT_EQ(Materializations(s), start + 1) << "once per delta generation";

  // !version and !graph read the graph too.
  s.HandleLine("!mutate add-node", &out);
  s.HandleLine("!version", &out);
  EXPECT_EQ(Materializations(s), start + 2);
  s.HandleLine("!mutate add-node", &out);
  s.HandleLine(std::string("!graph ") + kSpec, &out);
  EXPECT_EQ(Materializations(s), start + 3);
}

TEST(MutationSessionTest, InlineCompactionMaterializesTheVersionItFolds) {
  const std::string dir = FreshMutationDir("fold");
  server::GraphCatalogOptions copts;
  copts.mutation_dir = dir;
  copts.mutation_compact_threshold = 4;
  copts.mutation_background_compaction = false;
  server::GraphCatalog catalog(copts);
  server::SessionManager manager(&catalog, {});
  auto session = manager.Open(kSpec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  server::ServerSession& s = **session;
  std::string out;

  const long long start = Materializations(s);
  for (int k = 0; k < 4; ++k) s.HandleLine("!mutate add-node", &out);
  s.HandleLine("!stats", &out);
  EXPECT_EQ(StatValue(out, "compactions"), 1);
  EXPECT_EQ(StatValue(out, "materializations"), start + 1);
  // The fold published its version; the next reader reuses it.
  s.HandleLine(kQuery, &out);
  EXPECT_EQ(Materializations(s), start + 1);
}

}  // namespace
}  // namespace pathalg

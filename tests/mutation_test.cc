// Unit tests for the live-mutation subsystem's building blocks: the
// mutation grammar (parse/format round trip), DeltaState validation and
// cascade semantics, the fsync'd journal (round trip, torn tails, stale
// binding), the overlay materialization against its executable spec, and
// LiveGraph recovery — including the kill-and-recover contract that a
// reopened graph reproduces the pre-crash version id exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "mutation/delta_log.h"
#include "mutation/live_graph.h"
#include "mutation/overlay.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace pathalg {
namespace mutation {
namespace {

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "pathalg_mutation_test_" + stem;
}

std::shared_ptr<const PropertyGraph> SmallGraph() {
  GraphBuilder b;
  NodeId n1 = b.AddNamedNode("n1", "person", {{"age", Value(30)}});
  NodeId n2 = b.AddNamedNode("n2", "person");
  NodeId n3 = b.AddNamedNode("n3", "city", {{"pop", Value(1000)}});
  EXPECT_TRUE(b.AddNamedEdge("e1", n1, n2, "knows").ok());
  EXPECT_TRUE(b.AddNamedEdge("e2", n2, n3, "lives_in").ok());
  EXPECT_TRUE(b.AddNamedEdge("e3", n1, n3, "lives_in",
                             {{"since", Value(2020)}})
                  .ok());
  return std::make_shared<const PropertyGraph>(b.Build());
}

DeltaRecord MustParse(const std::string& text) {
  Result<DeltaRecord> rec = ParseMutationCommand(text);
  EXPECT_TRUE(rec.ok()) << text << ": " << rec.status().ToString();
  return rec.ok() ? *rec : DeltaRecord{};
}

TEST(MutationGrammar, ParsesEveryOp) {
  DeltaRecord rec = MustParse("add-node n9 label=person age=31 tag=x");
  EXPECT_EQ(rec.op, DeltaOp::kAddNode);
  EXPECT_EQ(rec.name, "n9");
  EXPECT_EQ(rec.label, "person");
  ASSERT_EQ(rec.props.size(), 2u);
  EXPECT_EQ(rec.props[0].first, "age");
  EXPECT_EQ(rec.props[0].second, Value(31));
  EXPECT_EQ(rec.props[1].second, Value("x"));

  rec = MustParse("add-edge n1 n2 label=knows name=e9 w=1.5");
  EXPECT_EQ(rec.op, DeltaOp::kAddEdge);
  EXPECT_EQ(rec.src, "n1");
  EXPECT_EQ(rec.dst, "n2");
  EXPECT_EQ(rec.name, "e9");
  ASSERT_EQ(rec.props.size(), 1u);
  EXPECT_EQ(rec.props[0].second, Value(1.5));

  rec = MustParse("rm-node n1");
  EXPECT_EQ(rec.op, DeltaOp::kRemoveNode);
  EXPECT_EQ(rec.name, "n1");

  rec = MustParse("rm-edge e2");
  EXPECT_EQ(rec.op, DeltaOp::kRemoveEdge);
  EXPECT_EQ(rec.name, "e2");
}

TEST(MutationGrammar, ValueTyping) {
  DeltaRecord rec = MustParse(
      "add-node x i=42 d=2.5 t=true f=false n=null s=hello neg=-7 e=");
  ASSERT_EQ(rec.props.size(), 8u);
  EXPECT_TRUE(rec.props[0].second.is_int());
  EXPECT_TRUE(rec.props[1].second.is_double());
  EXPECT_TRUE(rec.props[2].second.is_bool());
  EXPECT_TRUE(rec.props[3].second.is_bool());
  EXPECT_TRUE(rec.props[4].second.is_null());
  EXPECT_TRUE(rec.props[5].second.is_string());
  EXPECT_EQ(rec.props[6].first, "neg");
  EXPECT_EQ(rec.props[6].second, Value(int64_t{-7}));
  // "e=" parses as the empty string (not dropped).
  // Index 6 above is neg; find e:
  bool saw_empty = false;
  for (const auto& [k, v] : rec.props) {
    if (k == "e") {
      saw_empty = true;
      EXPECT_EQ(v, Value(std::string()));
    }
  }
  EXPECT_TRUE(saw_empty);
}

TEST(MutationGrammar, FormatParseRoundTrip) {
  const std::vector<std::string> cases = {
      "add-node n9 label=person age=31 score=1.5 ok=true note=null",
      "add-node",
      "add-edge n1 n2 label=knows name=e9 w=-3",
      "add-edge a b",
      "rm-node n1",
      "rm-edge e2",
      // Names containing '=' must re-emit through the name= form, or the
      // re-parse reads them as properties.
      "add-node name=a=b label=x",
      "add-edge n1 n2 name=w=1",
      "rm-node a=b",
  };
  for (const std::string& text : cases) {
    DeltaRecord rec = MustParse(text);
    std::string formatted = FormatMutation(rec);
    DeltaRecord again = MustParse(formatted);
    EXPECT_EQ(rec, again) << text << " -> " << formatted;
  }
}

TEST(MutationGrammar, Rejections) {
  EXPECT_FALSE(ParseMutationCommand("").ok());
  EXPECT_FALSE(ParseMutationCommand("drop-table users").ok());
  EXPECT_FALSE(ParseMutationCommand("add-edge n1").ok());
  EXPECT_FALSE(ParseMutationCommand("add-edge n1 n2 n3").ok());
  EXPECT_FALSE(ParseMutationCommand("rm-node").ok());
  EXPECT_FALSE(ParseMutationCommand("rm-node a b").ok());
  EXPECT_FALSE(ParseMutationCommand("add-node a b").ok());
  EXPECT_FALSE(ParseMutationCommand("add-node a name=b").ok());
  EXPECT_FALSE(ParseMutationCommand("add-node x label=a label=b").ok());
}

TEST(DeltaStateTest, AddAndRemoveWithCascade) {
  DeltaState state(SmallGraph());
  EXPECT_EQ(state.live_node_count(), 3u);
  EXPECT_EQ(state.live_edge_count(), 3u);

  DeltaRecord rec = MustParse("add-node n4 label=person");
  ASSERT_TRUE(state.Apply(&rec).ok());
  rec = MustParse("add-edge n4 n1 label=knows");
  ASSERT_TRUE(state.Apply(&rec).ok());
  EXPECT_EQ(rec.name, "e4") << "auto edge name is insertion-order";
  EXPECT_EQ(state.live_node_count(), 4u);
  EXPECT_EQ(state.live_edge_count(), 4u);

  // Removing n1 cascades to e1/e3 (base) and e4 (added).
  rec = MustParse("rm-node n1");
  ASSERT_TRUE(state.Apply(&rec).ok());
  EXPECT_EQ(state.live_node_count(), 3u);
  EXPECT_EQ(state.live_edge_count(), 1u);
  EXPECT_FALSE(state.LookupEdge("e1").ok());
  EXPECT_FALSE(state.LookupEdge("e3").ok());
  EXPECT_FALSE(state.LookupEdge("e4").ok());
  EXPECT_TRUE(state.LookupEdge("e2").ok());
}

TEST(DeltaStateTest, ValidationErrors) {
  DeltaState state(SmallGraph());
  DeltaRecord rec = MustParse("add-node n1");
  EXPECT_TRUE(state.Apply(&rec).IsInvalidArgument()) << "duplicate node";
  rec = MustParse("add-edge n1 nope");
  EXPECT_TRUE(state.Apply(&rec).IsNotFound()) << "unknown endpoint";
  rec = MustParse("rm-node ghost");
  EXPECT_TRUE(state.Apply(&rec).IsNotFound());
  rec = MustParse("rm-edge ghost");
  EXPECT_TRUE(state.Apply(&rec).IsNotFound());
  rec = MustParse("add-edge n1 n2 name=e1");
  EXPECT_TRUE(state.Apply(&rec).IsInvalidArgument()) << "duplicate edge name";
  EXPECT_TRUE(state.empty()) << "failed applies must not journal";

  // A removed name can be re-used: the merged graph never sees both.
  rec = MustParse("rm-node n1");
  ASSERT_TRUE(state.Apply(&rec).ok());
  rec = MustParse("add-node n1 label=robot");
  EXPECT_TRUE(state.Apply(&rec).ok());
}

TEST(DeltaStateTest, AutoNamesFollowInsertionOrder) {
  DeltaState state(SmallGraph());
  DeltaRecord rec = MustParse("add-node");
  ASSERT_TRUE(state.Apply(&rec).ok());
  EXPECT_EQ(rec.name, "n4");
  rec = MustParse("rm-node n4");
  ASSERT_TRUE(state.Apply(&rec).ok());
  rec = MustParse("add-node");
  ASSERT_TRUE(state.Apply(&rec).ok());
  EXPECT_EQ(rec.name, "n5") << "ids are never reused, matching GraphBuilder";
}

TEST(OverlayTest, ApplyMatchesRebuildByteForByte) {
  auto base = SmallGraph();
  DeltaState state(base);
  for (const char* m : {
           "add-node n4 label=person age=41",
           "add-edge n4 n2 label=knows name=k1 w=2",
           "rm-edge e1",
           "rm-node n3",
           "add-node m label=metro pop=9000000",
           "add-edge n4 m label=lives_in",
       }) {
    DeltaRecord rec = MustParse(m);
    ASSERT_TRUE(state.Apply(&rec).ok()) << m;
  }
  PropertyGraph merged = DeltaOverlayGraph::Apply(state);
  PropertyGraph rebuilt = DeltaOverlayGraph::RebuildReference(state);
  EXPECT_EQ(storage::SnapshotWriter::Serialize(merged),
            storage::SnapshotWriter::Serialize(rebuilt));
  EXPECT_EQ(merged.num_nodes(), state.live_node_count());
  EXPECT_EQ(merged.num_edges(), state.live_edge_count());
  // Spot-check the merged surface.
  EXPECT_NE(merged.FindNodeByName("n4"), kInvalidId);
  EXPECT_EQ(merged.FindNodeByName("n3"), kInvalidId);
  NodeId n4 = merged.FindNodeByName("n4");
  const Value* age = merged.NodeProperty(n4, "age");
  ASSERT_NE(age, nullptr);
  EXPECT_EQ(*age, Value(41));
}

TEST(OverlayTest, HistoryIndependentVersionIds) {
  // Adding and removing an object leaves the version id exactly where it
  // started — ids are content-addressed, not history stamps.
  auto base = SmallGraph();
  uint64_t v0 = storage::SnapshotWriter::VersionId(*base);
  DeltaState state(base);
  DeltaRecord rec = MustParse("add-node scratch label=tmp");
  ASSERT_TRUE(state.Apply(&rec).ok());
  rec = MustParse("rm-node scratch");
  ASSERT_TRUE(state.Apply(&rec).ok());
  PropertyGraph merged = DeltaOverlayGraph::Apply(state);
  EXPECT_EQ(storage::SnapshotWriter::VersionId(merged), v0);
}

TEST(JournalTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.journal");
  std::remove(path.c_str());
  std::vector<DeltaRecord> recs = {
      MustParse("add-node n4 label=person age=31 score=0.5"),
      MustParse("add-edge n4 n1 label=knows name=e9"),
      MustParse("rm-edge e1"),
      MustParse("rm-node n2"),
  };
  {
    Result<std::unique_ptr<DeltaJournal>> j =
        DeltaJournal::OpenForAppend(path, 0xabcdef);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    for (const DeltaRecord& r : recs) ASSERT_TRUE((*j)->Append(r).ok());
  }
  Result<DeltaJournal::Contents> read = DeltaJournal::ReadAll(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->base_version, 0xabcdefu);
  EXPECT_EQ(read->dropped_bytes, 0u);
  ASSERT_EQ(read->records.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(read->records[i], recs[i]) << i;
  }
}

TEST(JournalTest, TornTailIsDroppedAndTruncatedOnReopen) {
  const std::string path = TempPath("torn.journal");
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<DeltaJournal>> j =
        DeltaJournal::OpenForAppend(path, 7);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->Append(MustParse("add-node a")).ok());
    ASSERT_TRUE((*j)->Append(MustParse("add-node b")).ok());
  }
  // Simulate a crash mid-append: chop bytes off the last frame.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }
  Result<DeltaJournal::Contents> read = DeltaJournal::ReadAll(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u) << "torn second record dropped";
  EXPECT_EQ(read->records[0].name, "a");
  EXPECT_GT(read->dropped_bytes, 0u);

  // Reopen truncates the torn tail, then appends cleanly after it.
  Result<std::unique_ptr<DeltaJournal>> j =
      DeltaJournal::OpenForAppend(path, 7);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  ASSERT_TRUE((*j)->Append(MustParse("add-node c")).ok());
  read = DeltaJournal::ReadAll(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].name, "c");
  EXPECT_EQ(read->dropped_bytes, 0u);
}

TEST(JournalTest, RejectsWrongBaseVersionAndGarbage) {
  const std::string path = TempPath("wrongbase.journal");
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<DeltaJournal>> j =
        DeltaJournal::OpenForAppend(path, 1);
    ASSERT_TRUE(j.ok());
  }
  EXPECT_FALSE(DeltaJournal::OpenForAppend(path, 2).ok());

  const std::string garbage = TempPath("garbage.journal");
  std::ofstream(garbage, std::ios::binary) << "this is not a journal at all";
  EXPECT_FALSE(DeltaJournal::ReadAll(garbage).ok());
  EXPECT_FALSE(DeltaJournal::ReadAll(TempPath("missing.journal")).ok());
}

struct LivePaths {
  std::string journal;
  std::string base;
};

LivePaths FreshLivePaths(const std::string& stem) {
  LivePaths p{TempPath(stem + ".journal"), TempPath(stem + ".base.snap")};
  std::remove(p.journal.c_str());
  std::remove((p.journal + ".next").c_str());
  std::remove((p.journal + ".stale").c_str());
  std::remove(p.base.c_str());
  return p;
}

LiveGraphOptions LiveOpts(const LivePaths& p) {
  LiveGraphOptions o;
  o.journal_path = p.journal;
  o.base_snapshot_path = p.base;
  return o;
}

TEST(LiveGraphTest, MutateAndVersionLifecycle) {
  LivePaths paths = FreshLivePaths("lifecycle");
  Result<std::shared_ptr<LiveGraph>> lg =
      LiveGraph::Open(SmallGraph(), LiveOpts(paths));
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  LiveGraph& live = **lg;

  uint64_t v0 = live.VersionId();
  std::shared_ptr<const PropertyGraph> g0 = live.Current();
  EXPECT_EQ(g0.get(), live.Current().get()) << "empty delta aliases the base";

  MutateAck ack;
  ASSERT_TRUE(live.Mutate(MustParse("add-node n4 label=person"), &ack).ok());
  EXPECT_EQ(ack.resolved.name, "n4");
  EXPECT_EQ(ack.nodes, 4u);
  EXPECT_EQ(ack.edges, g0->num_edges());
  EXPECT_EQ(live.counters().materializations, 0u)
      << "an acknowledged write publishes nothing";
  std::shared_ptr<const PropertyGraph> g1 = live.Current();
  EXPECT_NE(g0.get(), g1.get());
  EXPECT_EQ(g0->num_nodes(), 3u) << "pinned version is untouched";
  EXPECT_EQ(g1->num_nodes(), 4u);
  uint64_t v1 = live.VersionId();
  EXPECT_NE(v0, v1);
  EXPECT_EQ(g1.get(), live.Current().get()) << "materialized once per delta";

  LiveGraphCounters c = live.counters();
  EXPECT_EQ(c.mutations_applied, 1u);
  EXPECT_EQ(c.pending, 1u);
  EXPECT_EQ(c.materializations, 1u);
}

TEST(LiveGraphTest, RecoveryReplaysJournalToSameVersion) {
  LivePaths paths = FreshLivePaths("recover");
  uint64_t pre_crash_version;
  {
    Result<std::shared_ptr<LiveGraph>> lg =
        LiveGraph::Open(SmallGraph(), LiveOpts(paths));
    ASSERT_TRUE(lg.ok());
    ASSERT_TRUE((*lg)->Mutate(MustParse("add-node n4 label=person")).ok());
    ASSERT_TRUE((*lg)->Mutate(MustParse("add-edge n4 n1 label=knows")).ok());
    ASSERT_TRUE((*lg)->Mutate(MustParse("rm-edge e2")).ok());
    pre_crash_version = (*lg)->VersionId();
    // "Crash": drop the LiveGraph without compaction; only the journal
    // survives.
  }
  Result<std::shared_ptr<LiveGraph>> lg =
      LiveGraph::Open(SmallGraph(), LiveOpts(paths));
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  EXPECT_EQ((*lg)->counters().recovered_records, 3u);
  EXPECT_EQ((*lg)->VersionId(), pre_crash_version)
      << "journal replay over the same base must reproduce the version id";
}

TEST(LiveGraphTest, CompactionPublishesSnapshotAndResetsJournal) {
  LivePaths paths = FreshLivePaths("compact");
  Result<std::shared_ptr<LiveGraph>> lg =
      LiveGraph::Open(SmallGraph(), LiveOpts(paths));
  ASSERT_TRUE(lg.ok());
  ASSERT_TRUE((*lg)->Mutate(MustParse("add-node n4 label=person")).ok());
  ASSERT_TRUE((*lg)->Mutate(MustParse("add-edge n4 n2 label=knows")).ok());
  uint64_t v_before = (*lg)->VersionId();
  ASSERT_TRUE((*lg)->Compact().ok());
  EXPECT_EQ((*lg)->VersionId(), v_before)
      << "compaction changes representation, never content";
  LiveGraphCounters c = (*lg)->counters();
  EXPECT_EQ(c.compactions, 1u);
  EXPECT_EQ(c.pending, 0u);

  // The published snapshot is the new base, chained to the old version.
  Result<storage::SnapshotReader::Info> info =
      storage::SnapshotReader::Probe(paths.base);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version_id, v_before);
  EXPECT_NE(info->parent_version, 0u);
  // Journal reset: bound to the new version, no records.
  Result<DeltaJournal::Contents> j = DeltaJournal::ReadAll(paths.journal);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->base_version, v_before);
  EXPECT_TRUE(j->records.empty());

  // Reopen from disk: base snapshot + empty journal → same version.
  Result<PropertyGraph> reopened = storage::SnapshotReader::Open(paths.base);
  ASSERT_TRUE(reopened.ok());
  Result<std::shared_ptr<LiveGraph>> again = LiveGraph::Open(
      std::make_shared<const PropertyGraph>(std::move(*reopened)),
      LiveOpts(paths), info->version_id);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->VersionId(), v_before);
  EXPECT_EQ((*again)->counters().recovered_records, 0u);
}

TEST(LiveGraphTest, MismatchedJournalIsQuarantinedNotDeleted) {
  LivePaths paths = FreshLivePaths("stale");
  {
    Result<std::shared_ptr<LiveGraph>> lg =
        LiveGraph::Open(SmallGraph(), LiveOpts(paths));
    ASSERT_TRUE(lg.ok());
    ASSERT_TRUE((*lg)->Mutate(MustParse("add-node n4")).ok());
  }
  // Reopen over a *different* base: the journal must not replay.
  GraphBuilder b;
  b.AddNamedNode("only", "alone");
  Result<std::shared_ptr<LiveGraph>> lg = LiveGraph::Open(
      std::make_shared<const PropertyGraph>(b.Build()), LiveOpts(paths));
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  EXPECT_EQ((*lg)->counters().recovered_records, 0u);
  EXPECT_EQ((*lg)->counters().stale_journals, 1u);
  EXPECT_EQ((*lg)->Current()->num_nodes(), 1u);
  std::ifstream stale(paths.journal + ".stale", std::ios::binary);
  EXPECT_TRUE(stale.good()) << "quarantined aside, never silently deleted";
}

TEST(LiveGraphTest, ThresholdCompactionRuns) {
  LivePaths paths = FreshLivePaths("threshold");
  LiveGraphOptions opts = LiveOpts(paths);
  opts.compact_threshold = 3;
  Result<std::shared_ptr<LiveGraph>> lg =
      LiveGraph::Open(SmallGraph(), opts);
  ASSERT_TRUE(lg.ok());
  ASSERT_TRUE((*lg)->Mutate(MustParse("add-node a")).ok());
  ASSERT_TRUE((*lg)->Mutate(MustParse("add-node b")).ok());
  EXPECT_EQ((*lg)->counters().compactions, 0u);
  ASSERT_TRUE((*lg)->Mutate(MustParse("add-node c")).ok());
  LiveGraphCounters c = (*lg)->counters();
  EXPECT_EQ(c.compactions, 1u);
  EXPECT_EQ(c.pending, 0u);
}

}  // namespace
}  // namespace mutation
}  // namespace pathalg

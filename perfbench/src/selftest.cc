// Tests of the benchmark's own helpers: percentiles and sample counts,
// span self-time arithmetic, generator determinism, and the checker.
// Exit code 0 when every check holds. Run: perfbench_selftest (or
// `python3 perfbench/run.py --selftest`).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "engine/workload_file.h"
#include "generator.h"
#include "stats.h"
#include "storage/snapshot_writer.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  const std::vector<double> hundred = Range(100);
  const Percentile p50 = NearestRank(hundred, 0.50);
  Expect(p50.value == 50 && p50.index == 49 && p50.samples == 100 &&
             p50.beyond == 50 && p50.tail_ok,
         "p50 of 1..100 is 50 with 50 samples beyond");
  const Percentile p99 = NearestRank(hundred, 0.99);
  Expect(p99.value == 99 && p99.beyond == 1 && !p99.tail_ok,
         "p99 of 100 samples is flagged: 1 sample beyond");
  const Percentile big = NearestRank(Range(2000), 0.99);
  Expect(big.value == 1980 && big.beyond == 20 && big.tail_ok,
         "p99 of 2000 samples has 20 beyond and is not flagged");
  const Percentile edge = NearestRank(Range(1000), 0.99);
  Expect(edge.beyond == 10 && edge.tail_ok,
         "exactly 10 samples beyond is enough");
  const Percentile one = NearestRank({7.5}, 0.99);
  Expect(one.value == 7.5 && one.beyond == 0 && !one.tail_ok,
         "a single sample is its own p99, flagged");
  const Percentile none = NearestRank({}, 0.5);
  Expect(none.samples == 0 && none.value == 0, "empty input");
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(Median({}) == 0, "empty median");
  // Two windows of 100 samples each: 1..100 in [0, 1), 101..200 in
  // [1, 2).
  std::vector<std::pair<double, double>> timed;
  for (int i = 1; i <= 200; ++i) timed.emplace_back(i <= 100 ? 0.5 : 1.5, i);
  const WindowedPercentile w50 = PercentileOverWindows(timed, 0.5, 2, 2.0);
  Expect(w50.value == 100 && w50.per_window.size() == 2 &&
             w50.per_window[0] == 50 && w50.per_window[1] == 150 &&
             w50.samples == 200 && w50.min_beyond == 50 && w50.tail_ok,
         "windowed p50 is the mean of the windows' p50s");
  const WindowedPercentile w99 = PercentileOverWindows(timed, 0.99, 2, 2.0);
  Expect(w99.value == 149 && w99.min_beyond == 1 && !w99.tail_ok,
         "windowed p99 is the windows' mean, flagged for 1 sample beyond");
  // Three windows of 1000 samples; the middle one is slowed tenfold.
  std::vector<std::pair<double, double>> slowed;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      slowed.emplace_back(w + 0.5, (w == 1 ? 10 : 1) * (i + w));
    }
  }
  const WindowedPercentile s99 = PercentileOverWindows(slowed, 0.99, 3, 3.0);
  Expect(s99.value == (990 + 9910 + 992) / 3.0 && s99.per_window[1] == 9910 &&
             s99.min_beyond == 10 && s99.tail_ok,
         "a disturbed window moves the mean by its share of the windows");
  const WindowedPercentile gap = PercentileOverWindows(timed, 0.5, 3, 2.0);
  Expect(!gap.tail_ok, "an empty window is flagged");
}

void TestSelfTimes() {
  Tracer t;
  const uint32_t n = t.Intern("x");
  const int32_t root = t.Add(n, 0, 100, -1, 1);
  const int32_t a = t.Add(n, 10, 30, root, 1);
  t.Add(n, 20, 50, root, 1);   // overlaps a: union 10..50
  t.Add(n, 90, 120, root, 1);  // clipped to 90..100
  t.Add(n, 12, 15, a, 1);      // grandchild: a's, not root's
  const int32_t other = t.Add(n, 200, 260, -1, 2);
  t.Add(n, 200, 260, other, 2);  // a child covering all of its parent
  const std::vector<int64_t> self = t.SelfTimes();
  Expect(self[0] == 100 - 40 - 10, "root self = duration - union(children)");
  Expect(self[1] == 20 - 3, "nested child self excludes the grandchild");
  Expect(self[2] == 30, "leaf self = duration");
  Expect(self[3] == 30, "a leaf's own duration is not clipped");
  Expect(self[5] == 0, "fully covered parent has zero self time");
  Expect(t.Intern("x") == n && t.Intern("y") != n, "interning");
}

std::string Flatten(const Stream& s) {
  std::string out;
  for (const Request& r : s.requests) {
    out += r.line + "|" + std::to_string(r.cls) + "|" +
           std::to_string(r.pin) + "\n";
  }
  for (const std::string& p : s.pins) out += p + "\n";
  return out;
}

void TestGenerator() {
  for (Workload w : {Workload::kPoint, Workload::kClosure}) {
    const WorkloadDef def = Define(w);
    const std::string a = Flatten(MakeStream(def, 7, 0, 3000));
    const std::string b = Flatten(MakeStream(def, 7, 0, 3000));
    const std::string c = Flatten(MakeStream(def, 8, 0, 3000));
    const std::string d = Flatten(MakeStream(def, 7, 1, 3000));
    Expect(a == b, "same seed gives a byte-identical stream");
    Expect(a != c, "another seed gives another stream");
    Expect(a != d, "another session gives another stream");
    // Exact class mix per 100-request block.
    const Stream s = MakeStream(def, 3, 0, 1000);
    std::vector<uint32_t> counts(def.classes.size(), 0);
    for (size_t i = 0; i < 100; ++i) ++counts[s.requests[i].cls];
    bool exact = true;
    for (size_t c2 = 0; c2 < counts.size(); ++c2) {
      exact = exact && counts[c2] == def.classes[c2].per_block;
    }
    Expect(exact, "first block carries the exact class mix");
  }
  Expect(MakeWriteProbe(7, 500) == MakeWriteProbe(7, 500),
         "write probe is deterministic");
  Expect(MakeWriteProbe(7, 500) != MakeWriteProbe(8, 500),
         "write probe depends on the seed");
  Rng r1(42), r2(42);
  Expect(r1.Next() == r2.Next(), "Rng is deterministic");
}

void TestChecker() {
  Expect(QueryResponseMatches("OK 5 paths", 5), "matching count accepted");
  Expect(!QueryResponseMatches("OK 5 paths", 4),
         "deliberately wrong expected count rejected");
  Expect(!QueryResponseMatches("OK 15 paths", 1), "prefix digits differ");
  Expect(!QueryResponseMatches("ERR Resource exhausted", 0),
         "error response rejected");
  Expect(!QueryResponseMatches("OK paths", 0), "missing count rejected");
  Expect(QueryResponseMatches("OK 3 paths hit parse=1us", 3),
         "timing suffix tolerated");
  Expect(MutateResponseOk("OK mutate add-node c1 nodes=2 edges=0"),
         "mutate ack accepted");
  Expect(!MutateResponseOk("ERR node 'c1' already exists"),
         "mutate error rejected");

  // A pin computed by the spec engine, checked against a response
  // carrying a deliberately wrong count.
  pathalg::Result<pathalg::PropertyGraph> g = pathalg::engine::
      BuildWorkloadGraph(Define(Workload::kClosure).graph_spec);
  Expect(g.ok(), "closure graph builds");
  if (!g.ok()) return;
  auto base = std::make_shared<const pathalg::PropertyGraph>(
      std::move(g).value());
  const std::string q =
      "MATCH ALL WALK p = (?x {name:\"person0\"})-[:Knows]->(?y)";
  pathalg::Result<Pinned> pinned = ComputePins(base, {q}, true);
  Expect(pinned.ok() && pinned->counts.size() == 1, "pin computed");
  if (!pinned.ok()) return;
  const size_t n = pinned->counts[0];
  Expect(n > 0, "anchored hop has answers");
  Expect(QueryResponseMatches("OK " + std::to_string(n) + " paths", n),
         "spec count accepted");
  Expect(!QueryResponseMatches("OK " + std::to_string(n + 1) + " paths", n),
         "off-by-one count rejected");

  // Every probe episode is net-zero: the reference rebuild after a whole
  // round of episodes has the version of the rebuild of the bare base
  // (the canonical form; the generator's own build interns labels in
  // another order, so its id differs).
  pathalg::Result<pathalg::PropertyGraph> cg =
      pathalg::engine::BuildWorkloadGraph(ProbeGraphSpec());
  Expect(cg.ok(), "probe graph builds");
  if (!cg.ok()) return;
  base = std::make_shared<const pathalg::PropertyGraph>(std::move(cg).value());
  std::vector<std::string> writes;
  for (const std::string& line : MakeWriteProbe(5, 80)) {
    writes.push_back(line.substr(8));
  }
  pathalg::Result<pathalg::PropertyGraph> after =
      ReferenceGraph(base, writes);
  Expect(after.ok(), "reference rebuild of whole episodes");
  pathalg::Result<pathalg::PropertyGraph> bare = ReferenceGraph(base, {});
  Expect(after.ok() && bare.ok() &&
             pathalg::storage::SnapshotWriter::VersionId(*after) ==
                 pathalg::storage::SnapshotWriter::VersionId(*bare),
         "whole episodes leave the canonical base version");
  std::vector<std::string> partial(writes.begin(), writes.begin() + 2);
  pathalg::Result<pathalg::PropertyGraph> mid = ReferenceGraph(base, partial);
  Expect(mid.ok() && bare.ok() &&
             pathalg::storage::SnapshotWriter::VersionId(*mid) !=
                 pathalg::storage::SnapshotWriter::VersionId(*bare),
         "a partial episode changes the version");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestSelfTimes();
  perfbench::TestGenerator();
  perfbench::TestChecker();
  if (perfbench::g_failures > 0) {
    std::printf("%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}

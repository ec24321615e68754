// The randomized differential harness for the parallel operator runtime:
// parallel evaluation must be *byte-identical* to serial — the same paths
// in the same insertion order (not just set-equal), and on budget
// exhaustion the same Status — at every thread count. Seeded random
// multigraphs × random top-closure regexes (the same trial family as the
// CSR harness, tests/fuzz_util.h), evaluated through the full plan
// evaluator at threads ∈ {1, 2, 4, 8} with min_chunk=1 so even tiny
// intermediate sets fan out over the pool.
//
// Trial budget: ≥200 graph×query trials per semantics (walk runs on
// random DAGs, where its answer sets are finite).
//
// Also here: EvalLimits behavior under parallel ϕ (same Status / same
// partial answer at any thread count — the budget merge runs on the
// calling thread in serial order by construction), EvalStats parallel
// counters, and the associativity contract of EvalStats::Merge.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "algebra/core_ops.h"
#include "fuzz_util.h"
#include "path/path_ops.h"
#include "plan/evaluator.h"
#include "regex/compile.h"
#include "regex/parser.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

const std::vector<std::string> kRegexLabels = {"a", "b", "c", "d"};
const std::vector<std::string> kGraphLabels = {"a", "b", "c"};

constexpr size_t kTrialsPerSemantics = 220;
constexpr size_t kThreadCounts[] = {2, 4, 8};

PropertyGraph TrialGraph(std::mt19937_64& rng, bool acyclic) {
  UniformMultigraphOptions opts;
  opts.num_nodes = 4 + rng() % 5;   // 4..8
  opts.num_edges = 6 + rng() % 9;   // 6..14
  opts.labels = kGraphLabels;
  opts.unlabeled_percent = 15;
  opts.acyclic = acyclic;
  opts.seed = rng();
  return MakeUniformMultigraph(opts);
}

/// Evaluates the compiled plan at 1 thread and at every entry of
/// kThreadCounts, asserting byte-identical results (or identical errors).
::testing::AssertionResult RunParallelTrial(const PropertyGraph& g,
                                            const std::string& regex_text,
                                            PathSemantics semantics,
                                            const std::string& context) {
  auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << context << " regex `" << regex_text << "` semantics "
           << PathSemanticsToString(semantics) << ": " << what;
  };
  auto regex = ParseRegex(regex_text);
  if (!regex.ok()) return fail("regex parse: " + regex.status().ToString());
  CompileOptions copts;
  copts.semantics = semantics;
  PlanPtr plan = CompileRegex(*regex, copts);

  EvalOptions serial_opts;
  serial_opts.threads = 1;
  Result<PathSet> serial = Evaluate(g, plan, serial_opts);

  for (size_t threads : kThreadCounts) {
    EvalOptions par_opts;
    par_opts.threads = threads;
    par_opts.min_chunk = 1;
    EvalStats stats;
    par_opts.stats = &stats;
    Result<PathSet> parallel = Evaluate(g, plan, par_opts);
    if (serial.ok() != parallel.ok()) {
      return fail("threads=" + std::to_string(threads) + ": serial " +
                  serial.status().ToString() + " vs parallel " +
                  parallel.status().ToString());
    }
    if (!serial.ok()) {
      if (serial.status().ToString() != parallel.status().ToString()) {
        return fail("threads=" + std::to_string(threads) +
                    ": error mismatch: " + serial.status().ToString() +
                    " vs " + parallel.status().ToString());
      }
      continue;
    }
    if (serial->paths() != parallel->paths()) {
      return fail("threads=" + std::to_string(threads) + ": serial (" +
                  std::to_string(serial->size()) +
                  " paths) != parallel byte-for-byte (" +
                  std::to_string(parallel->size()) + " paths)\n  serial: " +
                  serial->ToString(g) + "\n  parallel: " +
                  parallel->ToString(g));
    }
  }
  return ::testing::AssertionSuccess();
}

void RunFuzzLoop(PathSemantics semantics, bool acyclic_graphs) {
  for (uint64_t trial = 1; trial <= kTrialsPerSemantics; ++trial) {
    // Everything about the trial derives from this one seed (offset from
    // the CSR harness's stream so the two suites explore different
    // graphs).
    const uint64_t seed =
        trial * 40503u * 65537u + static_cast<uint64_t>(semantics);
    std::mt19937_64 rng(seed);
    PropertyGraph g = TrialGraph(rng, acyclic_graphs);
    std::string regex = fuzz::RandomTopClosureRegex(rng, kRegexLabels);
    EXPECT_TRUE(RunParallelTrial(
        g, regex, semantics,
        "trial " + std::to_string(trial) + " seed " + std::to_string(seed)));
    if (::testing::Test::HasFailure()) break;  // one repro is enough
  }
}

TEST(ParallelDifferentialFuzz, Trail) {
  RunFuzzLoop(PathSemantics::kTrail, false);
}

TEST(ParallelDifferentialFuzz, Acyclic) {
  RunFuzzLoop(PathSemantics::kAcyclic, false);
}

TEST(ParallelDifferentialFuzz, Simple) {
  RunFuzzLoop(PathSemantics::kSimple, false);
}

TEST(ParallelDifferentialFuzz, Shortest) {
  RunFuzzLoop(PathSemantics::kShortest, false);
}

TEST(ParallelDifferentialFuzz, WalkOnRandomDags) {
  // Walks are only finite on DAGs; cyclic walk budget behavior is pinned
  // by the ParallelEvalLimits suite below.
  RunFuzzLoop(PathSemantics::kWalk, true);
}

// The regex-driven loops above never reach the generic parallel σ: every
// compiled label atom is answered by the evaluator's label-scan fast
// path. Exercise σ (and ⋈) at the operator level directly, over
// materialized closures whose cardinality dwarfs min_chunk=1.
TEST(ParallelDifferentialFuzz, DirectSelectAndJoinByteIdentity) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed * 7919u);
    PropertyGraph g = TrialGraph(rng, /*acyclic=*/false);
    EvalLimits limits;
    limits.max_path_length = 3;
    limits.truncate = true;
    auto closure = Recursive(EdgesOf(g), PathSemantics::kWalk, limits);
    ASSERT_TRUE(closure.ok()) << "seed " << seed;
    const std::vector<ConditionPtr> conditions = {
        LenCompare(CompareOp::kGe, 2),
        EdgeLabelEq(1, kRegexLabels[rng() % kRegexLabels.size()]),
        Condition::Or(LenEq(1), NodeLabelEq(1, "Node")),
        Condition::Not(EdgeLabelEq(2, "a")),
    };
    for (const ConditionPtr& c : conditions) {
      const PathSet serial = Select(g, *closure, *c);
      for (size_t t : kThreadCounts) {
        ParallelStats stats;
        const PathSet parallel =
            Select(g, *closure, *c, ParallelOptions{t, 1}, &stats);
        ASSERT_EQ(serial.paths(), parallel.paths())
            << "Select seed " << seed << " threads " << t << " condition "
            << c->ToString();
      }
    }
    const PathSet serial_join = Join(*closure, EdgesOf(g));
    for (size_t t : kThreadCounts) {
      const PathSet parallel_join =
          Join(*closure, EdgesOf(g), ParallelOptions{t, 1});
      ASSERT_EQ(serial_join.paths(), parallel_join.paths())
          << "Join seed " << seed << " threads " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// EvalLimits under parallel ϕ: budget exhaustion must produce the same
// Status and (with truncate) the same partial answer at any thread count.
// ---------------------------------------------------------------------------

ParallelOptions Par(size_t threads) { return {threads, /*min_chunk=*/1}; }

class ParallelEvalLimitsTest : public ::testing::Test {
 protected:
  static std::vector<PathSemantics> AllSemantics() {
    return {PathSemantics::kWalk, PathSemantics::kTrail,
            PathSemantics::kAcyclic, PathSemantics::kSimple,
            PathSemantics::kShortest};
  }
};

TEST_F(ParallelEvalLimitsTest, MaxPathsExhaustionIsThreadCountInvariant) {
  PropertyGraph cycle = MakeCycleGraph(6);
  PathSet base = EdgesOf(cycle);
  for (bool truncate : {false, true}) {
    EvalLimits limits;
    limits.max_paths = 10;
    limits.truncate = truncate;
    auto serial =
        Recursive(base, PathSemantics::kWalk, limits, PhiEngine::kOptimized);
    for (size_t t : {2u, 4u, 8u}) {
      auto parallel = Recursive(base, PathSemantics::kWalk, limits,
                                PhiEngine::kOptimized, Par(t));
      ASSERT_EQ(serial.ok(), parallel.ok()) << "threads " << t;
      if (!serial.ok()) {
        EXPECT_TRUE(parallel.status().IsResourceExhausted());
        EXPECT_EQ(serial.status().ToString(), parallel.status().ToString())
            << "threads " << t;
      } else {
        EXPECT_EQ(serial->paths(), parallel->paths()) << "threads " << t;
        EXPECT_LE(parallel->size(), 10u);
      }
    }
  }
}

TEST_F(ParallelEvalLimitsTest, MaxPathLengthIsThreadCountInvariant) {
  PropertyGraph cycle = MakeCycleGraph(5);
  PathSet base = EdgesOf(cycle);
  for (PathSemantics sem : AllSemantics()) {
    for (bool truncate : {false, true}) {
      EvalLimits limits;
      limits.max_path_length = 3;
      limits.truncate = truncate;
      auto serial = Recursive(base, sem, limits, PhiEngine::kOptimized);
      for (size_t t : {2u, 4u, 8u}) {
        auto parallel =
            Recursive(base, sem, limits, PhiEngine::kOptimized, Par(t));
        ASSERT_EQ(serial.ok(), parallel.ok())
            << PathSemanticsToString(sem) << " threads " << t;
        if (!serial.ok()) {
          EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
        } else {
          EXPECT_EQ(serial->paths(), parallel->paths())
              << PathSemanticsToString(sem) << " threads " << t;
          for (const Path& p : *parallel) EXPECT_LE(p.Len(), 3u);
        }
      }
    }
  }
}

TEST_F(ParallelEvalLimitsTest, MaxIterationsIsThreadCountInvariant) {
  // A long chain forces many frontier rounds; a tiny round budget
  // truncates mid-closure identically everywhere.
  PropertyGraph chain = MakeChainGraph(24);
  PathSet base = EdgesOf(chain);
  for (bool truncate : {false, true}) {
    EvalLimits limits;
    limits.max_iterations = 3;
    limits.truncate = truncate;
    for (PathSemantics sem :
         {PathSemantics::kWalk, PathSemantics::kTrail,
          PathSemantics::kAcyclic}) {
      auto serial = Recursive(base, sem, limits, PhiEngine::kOptimized);
      for (size_t t : {2u, 4u, 8u}) {
        auto parallel =
            Recursive(base, sem, limits, PhiEngine::kOptimized, Par(t));
        ASSERT_EQ(serial.ok(), parallel.ok())
            << PathSemanticsToString(sem) << " threads " << t;
        if (!serial.ok()) {
          EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
        } else {
          EXPECT_EQ(serial->paths(), parallel->paths())
              << PathSemanticsToString(sem) << " threads " << t;
        }
      }
    }
  }
}

TEST_F(ParallelEvalLimitsTest, WholeEvaluatorPropagatesExhaustion) {
  // Through Evaluate(): ϕWalk over a cycle with a tight budget errors the
  // same way at every thread count (stats still filled on error).
  PropertyGraph cycle = MakeCycleGraph(4);
  auto regex = ParseRegex(":Knows+");
  ASSERT_TRUE(regex.ok());
  CompileOptions copts;
  copts.semantics = PathSemantics::kWalk;
  PlanPtr plan = CompileRegex(*regex, copts);
  for (size_t t : {1u, 2u, 4u, 8u}) {
    EvalOptions opts;
    opts.threads = t;
    opts.min_chunk = 1;
    opts.limits.max_paths = 16;
    EvalStats stats;
    opts.stats = &stats;
    auto r = Evaluate(cycle, plan, opts);
    EXPECT_TRUE(r.status().IsResourceExhausted()) << "threads " << t;
    EXPECT_GT(stats.nodes_evaluated, 0u) << "stats filled on error";
  }
}

// ---------------------------------------------------------------------------
// EvalStats parallel counters and the Merge associativity contract.
// ---------------------------------------------------------------------------

TEST(ParallelEvalStatsTest, ParallelRunsReportChunksAndFallbacks) {
  PropertyGraph g = MakeRandomGraph(24, 160, {"a", "b"}, 11);
  auto regex = ParseRegex("(:a|:b)/(:a|:b)");
  ASSERT_TRUE(regex.ok());
  PlanPtr plan = CompileRegex(*regex, {});

  EvalOptions serial_opts;
  serial_opts.threads = 1;
  EvalStats serial_stats;
  serial_opts.stats = &serial_stats;
  ASSERT_TRUE(Evaluate(g, plan, serial_opts).ok());
  EXPECT_EQ(serial_stats.chunks_executed, 0u);
  EXPECT_EQ(serial_stats.steal_count, 0u);

  EvalOptions par_opts;
  par_opts.threads = 4;
  par_opts.min_chunk = 1;
  EvalStats par_stats;
  par_opts.stats = &par_stats;
  ASSERT_TRUE(Evaluate(g, plan, par_opts).ok());
  EXPECT_GT(par_stats.chunks_executed, 0u);

  // With a sky-high min_chunk every eligible site falls back serially,
  // attributed to its operator kind.
  EvalOptions fallback_opts;
  fallback_opts.threads = 4;
  fallback_opts.min_chunk = 1'000'000;
  EvalStats fb_stats;
  fallback_opts.stats = &fb_stats;
  ASSERT_TRUE(Evaluate(g, plan, fallback_opts).ok());
  EXPECT_EQ(fb_stats.chunks_executed, 0u);
  size_t total_fallbacks = 0;
  for (size_t k = 0; k < kNumPlanKinds; ++k) {
    total_fallbacks += fb_stats.op_serial_fallback[k];
  }
  EXPECT_GT(total_fallbacks, 0u);
}

TEST(ParallelEvalStatsTest, NaiveEngineCountsAsRecursiveFallback) {
  PropertyGraph g = MakeChainGraph(6);
  ParallelStats pstats;
  auto r = Recursive(EdgesOf(g), PathSemantics::kTrail, {},
                     PhiEngine::kNaive, Par(4), &pstats);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(pstats.serial_fallbacks, 1u);
  EXPECT_EQ(pstats.chunks_executed, 0u);
}

EvalStats MakeStats(uint64_t seed) {
  std::mt19937_64 rng(seed);
  EvalStats s;
  s.wall_us = rng() % 1000;
  s.nodes_evaluated = rng() % 100;
  s.peak_intermediate_paths = rng() % 10000;
  for (size_t i = 0; i < kNumPlanKinds; ++i) {
    s.op_us[i] = rng() % 500;
    s.op_count[i] = rng() % 50;
    s.op_serial_fallback[i] = rng() % 5;
  }
  s.label_scan_hits = rng() % 20;
  s.chunks_executed = rng() % 300;
  s.steal_count = rng() % 40;
  s.fused_closure_hits = rng() % 8;
  s.seeded_scans = rng() % 8;
  s.frontier_states_expanded = rng() % 5000;
  s.frontier_paths_reconstructed = rng() % 800;
  return s;
}

bool StatsEqual(const EvalStats& a, const EvalStats& b) {
  if (a.wall_us != b.wall_us || a.nodes_evaluated != b.nodes_evaluated ||
      a.peak_intermediate_paths != b.peak_intermediate_paths ||
      a.label_scan_hits != b.label_scan_hits ||
      a.chunks_executed != b.chunks_executed ||
      a.steal_count != b.steal_count ||
      a.fused_closure_hits != b.fused_closure_hits ||
      a.seeded_scans != b.seeded_scans ||
      a.frontier_states_expanded != b.frontier_states_expanded ||
      a.frontier_paths_reconstructed != b.frontier_paths_reconstructed) {
    return false;
  }
  for (size_t i = 0; i < kNumPlanKinds; ++i) {
    if (a.op_us[i] != b.op_us[i] || a.op_count[i] != b.op_count[i] ||
        a.op_serial_fallback[i] != b.op_serial_fallback[i]) {
      return false;
    }
  }
  return true;
}

TEST(EvalStatsMergeTest, MergeIsAssociative) {
  // Per-worker partial stats must combine to the same totals under any
  // grouping: counters sum, peak_intermediate_paths is a max — both
  // associative. (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const EvalStats a = MakeStats(seed * 3);
    const EvalStats b = MakeStats(seed * 3 + 1);
    const EvalStats c = MakeStats(seed * 3 + 2);

    EvalStats left = a;       // (a ⊕ b) ⊕ c
    left.Merge(b);
    left.Merge(c);

    EvalStats bc = b;         // a ⊕ (b ⊕ c)
    bc.Merge(c);
    EvalStats right = a;
    right.Merge(bc);

    EXPECT_TRUE(StatsEqual(left, right)) << "seed " << seed;
  }
}

TEST(EvalStatsMergeTest, MergeIsCommutativeAndPeakIsHighWater) {
  const EvalStats a = MakeStats(101);
  const EvalStats b = MakeStats(202);
  EvalStats ab = a;
  ab.Merge(b);
  EvalStats ba = b;
  ba.Merge(a);
  EXPECT_TRUE(StatsEqual(ab, ba));
  // The high-water mark is a max, not a sum: merging a small-peak run
  // into a large-peak aggregate must not inflate the aggregate.
  EXPECT_EQ(ab.peak_intermediate_paths,
            std::max(a.peak_intermediate_paths, b.peak_intermediate_paths));
  EXPECT_EQ(ab.nodes_evaluated, a.nodes_evaluated + b.nodes_evaluated);
}

TEST(EvalStatsMergeTest, MergeWithDefaultIsIdentity) {
  const EvalStats a = MakeStats(77);
  EvalStats merged = a;
  merged.Merge(EvalStats());
  EXPECT_TRUE(StatsEqual(merged, a));
}

}  // namespace
}  // namespace pathalg

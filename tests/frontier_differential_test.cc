/// \file frontier_differential_test.cc
/// Differential contract of the NFA-fused frontier engine
/// (algebra/frontier_closure.h) against the materializing ϕ engines and
/// the automaton baseline:
///
///   FrontierClosure(g, r, sem)  ≡  ϕ_sem(Eval(compile(r)))   (semi-naive,
///                                                             naive)
///                               ≡  EvaluateRpqAutomaton(g, r+)
///
/// per-engine byte-identical at t ∈ {1, 2, 4, 8} (results, partial
/// answers and Status), plus the exact-budget edge-case sweep of
/// algebra/eval_budget.h: max_paths at {0, 1, |base|, |answer|−1,
/// |answer|}, max_iterations at {0, 1}, truncate on and off — Status must
/// be byte-equal across engines (the trip predicates are pure functions
/// of the query, never of enumeration order), truncated partial answers
/// must have exactly min(max_paths, |answer|) paths and be subsets of the
/// full answer. Suite names carry "Differential" so the TSan CI lane's
/// `ctest -R Differential` regex picks every case up.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "algebra/eval_budget.h"
#include "algebra/frontier_closure.h"
#include "algebra/recursive.h"
#include "baseline/automaton_eval.h"
#include "plan/evaluator.h"
#include "regex/ast.h"
#include "regex/compile.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

const std::vector<std::string> kLabels = {"a", "b", "c"};

/// A random closure-free regex (labels / concat / union only) — the
/// family FrontierEligible admits.
RegexPtr RandomClosureFreeRegex(std::mt19937_64& rng, int depth) {
  if (depth <= 0 || rng() % 3 == 0) {
    return RegexNode::Label(kLabels[rng() % kLabels.size()]);
  }
  RegexPtr l = RandomClosureFreeRegex(rng, depth - 1);
  RegexPtr r = RandomClosureFreeRegex(rng, depth - 1);
  return rng() % 2 == 0 ? RegexNode::Concat(std::move(l), std::move(r))
                        : RegexNode::Union(std::move(l), std::move(r));
}

PropertyGraph TrialGraph(uint64_t seed, bool force_acyclic) {
  UniformMultigraphOptions gopts;
  gopts.num_nodes = 5 + seed % 3;
  gopts.num_edges = 8 + seed % 5;
  gopts.labels = kLabels;
  gopts.unlabeled_percent = 10;
  gopts.acyclic = force_acyclic || seed % 2 == 0;
  gopts.seed = seed;
  return MakeUniformMultigraph(gopts);
}

ParallelOptions Par(size_t threads) {
  ParallelOptions par;
  par.threads = threads;
  par.min_chunk = 1;  // tiny fuzz inputs must actually chunk at t > 1
  return par;
}

/// ϕ_sem over the materialized base set Eval(compile(inner)).
Result<PathSet> MaterializedPhi(const PropertyGraph& g, const RegexPtr& inner,
                                PathSemantics semantics,
                                const EvalLimits& limits, PhiEngine engine) {
  auto base = Evaluate(g, CompileRegex(inner));
  if (!base.ok()) return base.status();
  return Recursive(*base, semantics, limits, engine);
}

std::string Describe(uint64_t seed, const RegexPtr& inner,
                     PathSemantics semantics) {
  return "seed " + std::to_string(seed) + " inner `" + inner->ToString() +
         "` semantics " + PathSemanticsToString(semantics);
}

class FrontierDifferentialTest
    : public ::testing::TestWithParam<PathSemantics> {};

// --- Satellite 4: frontier ≡ semi-naive ≡ baseline, t-sweep identity ----

TEST_P(FrontierDifferentialTest, MatchesSemiNaiveAndBaselineFuzz) {
  const PathSemantics semantics = GetParam();
  // truncate=true with a huge max_paths: max_path_length acts as a pure
  // silent cap, so every engine returns the same *complete* capped set
  // regardless of its enumeration order.
  EvalLimits limits;
  limits.max_path_length = 7;
  limits.max_paths = 1'000'000;
  limits.truncate = true;

  for (uint64_t seed = 1; seed <= 240; ++seed) {
    std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(semantics));
    const PropertyGraph g =
        TrialGraph(seed, /*force_acyclic=*/semantics == PathSemantics::kWalk);
    const RegexPtr inner = RandomClosureFreeRegex(rng, 2);
    const std::string ctx = Describe(seed, inner, semantics);
    ASSERT_TRUE(FrontierEligible(inner)) << ctx;

    auto frontier = FrontierClosure(g, inner, semantics, limits, Par(1));
    ASSERT_TRUE(frontier.ok()) << ctx << ": " << frontier.status().ToString();

    auto semi = MaterializedPhi(g, inner, semantics, limits,
                                PhiEngine::kOptimized);
    ASSERT_TRUE(semi.ok()) << ctx << ": " << semi.status().ToString();
    EXPECT_EQ(*frontier, *semi) << ctx << ": frontier ("
                                << frontier->size() << " paths) != semi-naive ("
                                << semi->size() << " paths)";

    AutomatonEvalOptions aopts;
    aopts.semantics = semantics;
    aopts.limits = limits;
    auto baseline = EvaluateRpqAutomaton(g, RegexNode::Plus(inner), aopts);
    ASSERT_TRUE(baseline.ok()) << ctx << ": " << baseline.status().ToString();
    EXPECT_EQ(*frontier, *baseline)
        << ctx << ": frontier (" << frontier->size()
        << " paths) != automaton baseline (" << baseline->size() << " paths)";

    // Byte-identity across the thread sweep, for the frontier engine and
    // the parallelized baseline alike: same paths in the same insertion
    // order at every thread count.
    for (size_t t : {2u, 4u, 8u}) {
      auto ft = FrontierClosure(g, inner, semantics, limits, Par(t));
      ASSERT_TRUE(ft.ok()) << ctx << " t=" << t;
      EXPECT_EQ(ft->paths(), frontier->paths())
          << ctx << ": frontier t=" << t << " diverged from t=1";

      AutomatonEvalOptions apar = aopts;
      apar.parallel = Par(t);
      auto bt = EvaluateRpqAutomaton(g, RegexNode::Plus(inner), apar);
      ASSERT_TRUE(bt.ok()) << ctx << " t=" << t;
      EXPECT_EQ(bt->paths(), baseline->paths())
          << ctx << ": baseline t=" << t << " diverged from t=1";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, FrontierDifferentialTest,
    ::testing::Values(PathSemantics::kWalk, PathSemantics::kTrail,
                      PathSemantics::kAcyclic, PathSemantics::kSimple,
                      PathSemantics::kShortest),
    [](const ::testing::TestParamInfo<PathSemantics>& info) {
      return PathSemanticsToString(info.param);
    });

// --- Satellite 2: exact-budget edge cases across all four engines -------

/// Runs all four engines on ϕ_sem(:a) under `limits` and checks the
/// cross-engine contract: byte-equal Status; equal sets when OK; exactly
/// min(max_paths, |answer|) paths, each from the full answer, when
/// truncated. `full` is the budget-free answer.
void ExpectBudgetParity(const PropertyGraph& g, PathSemantics semantics,
                        const EvalLimits& limits, const PathSet& full,
                        const std::string& ctx) {
  const RegexPtr atom = RegexNode::Label("a");

  struct Run {
    const char* name;
    Result<PathSet> r;
  };
  AutomatonEvalOptions aopts;
  aopts.semantics = semantics;
  aopts.limits = limits;
  std::vector<Run> runs;
  runs.push_back({"naive", MaterializedPhi(g, atom, semantics, limits,
                                           PhiEngine::kNaive)});
  runs.push_back({"semi-naive", MaterializedPhi(g, atom, semantics, limits,
                                                PhiEngine::kOptimized)});
  runs.push_back(
      {"frontier", FrontierClosure(g, atom, semantics, limits, Par(1))});
  runs.push_back({"baseline",
                  EvaluateRpqAutomaton(g, RegexNode::Plus(atom), aopts)});

  const std::string status0 = runs[0].r.status().ToString();
  for (const Run& run : runs) {
    EXPECT_EQ(run.r.status().ToString(), status0)
        << ctx << ": " << run.name << " Status diverged from naive";
  }
  if (!runs[0].r.ok()) return;

  const size_t expect_size = std::min(limits.max_paths, full.size());
  for (const Run& run : runs) {
    if (!run.r.ok()) continue;  // already reported above
    EXPECT_EQ(run.r->size(), expect_size)
        << ctx << ": " << run.name << " returned wrong answer size";
    for (const Path& p : *run.r) {
      EXPECT_TRUE(full.Contains(p))
          << ctx << ": " << run.name << " emitted " << p.ToString()
          << " which is not in the full answer";
    }
    if (expect_size == full.size()) {
      EXPECT_EQ(*run.r, full) << ctx << ": " << run.name
                              << " differs from the full answer";
    }
  }
}

TEST(FrontierDifferentialBudgetTest, ExactMaxPathsEdgeCases) {
  const RegexPtr atom = RegexNode::Label("a");
  for (PathSemantics semantics :
       {PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      // DAGs keep every WALK answer finite without leaning on the cap.
      const PropertyGraph g = TrialGraph(seed, /*force_acyclic=*/true);

      auto full = FrontierClosure(g, atom, semantics, {}, Par(1));
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      auto base = Evaluate(g, CompileRegex(atom));
      ASSERT_TRUE(base.ok());
      const size_t base_size = RestrictPaths(*base, semantics).size();
      const size_t answer = full->size();

      std::set<size_t> caps = {0, 1, base_size, answer};
      if (answer > 0) caps.insert(answer - 1);
      for (size_t max_paths : caps) {
        for (bool truncate : {false, true}) {
          EvalLimits limits;
          limits.max_paths = max_paths;
          limits.truncate = truncate;
          ExpectBudgetParity(
              g, semantics, limits, *full,
              "seed " + std::to_string(seed) + " semantics " +
                  PathSemanticsToString(semantics) + " max_paths=" +
                  std::to_string(max_paths) +
                  (truncate ? " truncate" : " strict"));
        }
      }
    }
  }
}

TEST(FrontierDifferentialBudgetTest, ExactMaxIterationsEdgeCases) {
  // max_iterations is a fixpoint-round budget; the automaton baseline has
  // no fixpoint and is excluded (eval_budget.h). After r surviving rounds
  // all three algebra engines hold exactly the ≤(r+1)-segment
  // compositions, so truncated partial answers are set-equal too.
  const RegexPtr atom = RegexNode::Label("a");
  for (PathSemantics semantics :
       {PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      const PropertyGraph g = TrialGraph(seed, /*force_acyclic=*/true);
      for (size_t max_iterations : {0u, 1u, 2u}) {
        for (bool truncate : {false, true}) {
          EvalLimits limits;
          limits.max_iterations = max_iterations;
          limits.truncate = truncate;
          const std::string ctx =
              "seed " + std::to_string(seed) + " semantics " +
              PathSemanticsToString(semantics) + " max_iterations=" +
              std::to_string(max_iterations) +
              (truncate ? " truncate" : " strict");

          auto naive = MaterializedPhi(g, atom, semantics, limits,
                                       PhiEngine::kNaive);
          auto semi = MaterializedPhi(g, atom, semantics, limits,
                                      PhiEngine::kOptimized);
          auto frontier =
              FrontierClosure(g, atom, semantics, limits, Par(1));
          EXPECT_EQ(semi.status().ToString(), naive.status().ToString())
              << ctx;
          EXPECT_EQ(frontier.status().ToString(), naive.status().ToString())
              << ctx;
          if (naive.ok() && semi.ok() && frontier.ok()) {
            EXPECT_EQ(*semi, *naive) << ctx;
            EXPECT_EQ(*frontier, *naive) << ctx;
          }
        }
      }
    }
  }
}

TEST(FrontierDifferentialBudgetTest, EmptyBaseWithZeroIterationsIsFixpoint) {
  // ϕ0 = ∅ is already a verified fixpoint: no engine may charge a round
  // for it, even at max_iterations = 0 (the naive engine used to).
  GraphBuilder b;
  b.AddNode("Node");
  b.AddNode("Node");
  const PropertyGraph g = b.Build();  // no edges at all
  const RegexPtr atom = RegexNode::Label("a");
  EvalLimits limits;
  limits.max_iterations = 0;
  for (PathSemantics semantics :
       {PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple}) {
    auto naive = MaterializedPhi(g, atom, semantics, limits,
                                 PhiEngine::kNaive);
    auto semi = MaterializedPhi(g, atom, semantics, limits,
                                PhiEngine::kOptimized);
    auto frontier = FrontierClosure(g, atom, semantics, limits, Par(1));
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_TRUE(semi.ok()) << semi.status().ToString();
    ASSERT_TRUE(frontier.ok()) << frontier.status().ToString();
    EXPECT_TRUE(naive->empty());
    EXPECT_TRUE(semi->empty());
    EXPECT_TRUE(frontier->empty());
  }
}

// --- Satellite 3: max_paths beats max_path_length when both trip --------

TEST(FrontierDifferentialTest, BudgetPrecedenceMaxPathsBeforeMaxPathLength) {
  // A 6-node a-chain under TRAIL: the full answer holds 15 paths (all
  // sub-chains), 5 of length 1. With max_path_length = 1 the dropped flag
  // is guaranteed (every 2-edge composition is admissible but overlong)
  // and with max_paths = 3 the path budget also trips (5 distinct
  // length-1 results > 3). Every engine must report max_paths — the
  // during-enumeration budget — never the at-fixpoint length flag.
  const PropertyGraph g = MakeChainGraph(6, "a");
  const RegexPtr atom = RegexNode::Label("a");
  EvalLimits limits;
  limits.max_path_length = 1;
  limits.max_paths = 3;

  AutomatonEvalOptions aopts;
  aopts.semantics = PathSemantics::kTrail;
  aopts.limits = limits;
  const Result<PathSet> runs[] = {
      MaterializedPhi(g, atom, PathSemantics::kTrail, limits,
                      PhiEngine::kNaive),
      MaterializedPhi(g, atom, PathSemantics::kTrail, limits,
                      PhiEngine::kOptimized),
      FrontierClosure(g, atom, PathSemantics::kTrail, limits, Par(1)),
      EvaluateRpqAutomaton(g, RegexNode::Plus(atom), aopts),
  };
  for (const Result<PathSet>& r : runs) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
    EXPECT_NE(r.status().ToString().find("max_paths"), std::string::npos)
        << "expected the max_paths budget to win: " << r.status().ToString();
    EXPECT_EQ(r.status().ToString(), runs[0].status().ToString());
  }

  // With truncate the same double-trip returns exactly max_paths paths.
  limits.truncate = true;
  aopts.limits = limits;
  const Result<PathSet> truncated[] = {
      MaterializedPhi(g, atom, PathSemantics::kTrail, limits,
                      PhiEngine::kNaive),
      MaterializedPhi(g, atom, PathSemantics::kTrail, limits,
                      PhiEngine::kOptimized),
      FrontierClosure(g, atom, PathSemantics::kTrail, limits, Par(1)),
      EvaluateRpqAutomaton(g, RegexNode::Plus(atom), aopts),
  };
  for (const Result<PathSet>& r : truncated) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->size(), 3u);
  }
}

// --- Tentpole plumbing: fused evaluator ≡ unfused plan evaluation -------

TEST(FrontierDifferentialTest, FusedEvaluatorMatchesUnfused) {
  for (PathSemantics semantics :
       {PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      std::mt19937_64 rng(seed * 104729 + static_cast<uint64_t>(semantics));
      const PropertyGraph g = TrialGraph(
          seed, /*force_acyclic=*/semantics == PathSemantics::kWalk);
      const RegexPtr inner = RandomClosureFreeRegex(rng, 2);
      const RegexPtr closure = RegexNode::Plus(inner);
      const std::string ctx = Describe(seed, inner, semantics);

      CompileOptions copts;
      copts.semantics = semantics;
      const PlanPtr plan = CompileRegex(closure, copts);

      EvalOptions fused;
      fused.limits.max_path_length = 7;
      fused.limits.truncate = true;
      EvalStats stats;
      fused.stats = &stats;
      EvalOptions unfused = fused;
      unfused.fuse_closures = false;
      unfused.stats = nullptr;

      auto without = Evaluate(g, plan, unfused);
      auto with = Evaluate(g, plan, fused);
      ASSERT_EQ(with.status().ToString(), without.status().ToString()) << ctx;
      ASSERT_TRUE(with.ok()) << ctx << ": " << with.status().ToString();
      EXPECT_EQ(*with, *without) << ctx;
      EXPECT_EQ(stats.fused_closure_hits, 1u) << ctx;
      EXPECT_GT(stats.op_count[static_cast<size_t>(PlanKind::kRecursive)], 0u)
          << ctx;
      if (!with->empty()) {
        EXPECT_GT(stats.frontier_states_expanded, 0u) << ctx;
        EXPECT_GT(stats.frontier_paths_reconstructed, 0u) << ctx;
      }
    }
  }
}

TEST(FrontierDifferentialTest, IneligiblePlansFallBackToMaterializingPhi) {
  // ((:a)+)+ — the OUTER ϕ's child subtree is itself a kRecursive, which
  // fusion rejects, so the outer node must fall back to materializing ϕ;
  // the inner ϕ(:a) is eligible and still fuses. Results must agree with
  // fuse_closures=false either way.
  const PropertyGraph g = MakeChainGraph(5, "a");
  const RegexPtr nested = RegexNode::Plus(RegexNode::Plus(
      RegexNode::Label("a")));
  CompileOptions copts;
  copts.semantics = PathSemantics::kTrail;
  const PlanPtr plan = CompileRegex(nested, copts);

  EvalOptions fused;
  EvalStats stats;
  fused.stats = &stats;
  EvalOptions unfused = fused;
  unfused.fuse_closures = false;
  unfused.stats = nullptr;

  auto with = Evaluate(g, plan, fused);
  auto without = Evaluate(g, plan, unfused);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_EQ(*with, *without);
  // Exactly the inner ϕ fused; the outer one ran the materializing engine.
  EXPECT_EQ(stats.fused_closure_hits, 1u);
  EXPECT_GT(stats.op_count[static_cast<size_t>(PlanKind::kRecursive)], 1u);
}

TEST(FrontierDifferentialTest, RefusedPhiReportsAccumulatorPeak) {
  // A refused ϕ hands no PathSet back, yet it held exactly max_paths
  // distinct paths when the (max_paths+1)-th tripped the budget; that is
  // the evaluation's high-water mark, at any thread count.
  const PropertyGraph g = MakeCycleGraph(6, "Knows");
  constexpr size_t kBudget = 10;
  for (PathSemantics semantics :
       {PathSemantics::kWalk, PathSemantics::kShortest}) {
    CompileOptions copts;
    copts.semantics = semantics;
    const PlanPtr plan =
        CompileRegex(RegexNode::Plus(RegexNode::Label("Knows")), copts);
    for (size_t threads : {1, 4}) {
      EvalOptions options;
      options.limits.max_paths = kBudget;
      options.limits.truncate = false;
      options.threads = threads;
      options.min_chunk = 1;
      EvalStats stats;
      options.stats = &stats;
      auto r = Evaluate(g, plan, options);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().ToString(),
                BudgetExhausted("max_paths").ToString());
      EXPECT_EQ(stats.fused_closure_hits, 1u);
      EXPECT_EQ(stats.peak_intermediate_paths, kBudget)
          << "threads=" << threads
          << " semantics=" << static_cast<int>(semantics);

      FrontierClosureStats fstats;
      auto direct = FrontierClosure(
          g, RegexNode::Label("Knows"), semantics, options.limits,
          ParallelOptions{threads, 1}, nullptr, &fstats);
      ASSERT_FALSE(direct.ok());
      EXPECT_EQ(fstats.accumulated_paths, kBudget);
    }
  }
}

TEST(FrontierDifferentialTest, RefusedMaterializingPhiReportsAccumulatorPeak) {
  // The same refusal through both materializing engines — semi-naive
  // (fuse_closures=false) and the Definition 4.1 reference (kNaive) —
  // reports the accumulator too, not just the base set's 6 edges.
  const PropertyGraph g = MakeCycleGraph(6, "Knows");
  constexpr size_t kBudget = 10;
  CompileOptions copts;
  copts.semantics = PathSemantics::kWalk;
  const PlanPtr plan =
      CompileRegex(RegexNode::Plus(RegexNode::Label("Knows")), copts);
  for (PhiEngine engine : {PhiEngine::kOptimized, PhiEngine::kNaive}) {
    for (size_t threads : {1, 4}) {
      EvalOptions options;
      options.engine = engine;
      options.fuse_closures = false;
      options.limits.max_paths = kBudget;
      options.threads = threads;
      options.min_chunk = 1;
      EvalStats stats;
      options.stats = &stats;
      auto r = Evaluate(g, plan, options);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().ToString(),
                BudgetExhausted("max_paths").ToString());
      EXPECT_EQ(stats.fused_closure_hits, 0u);
      EXPECT_EQ(stats.peak_intermediate_paths, kBudget)
          << "threads=" << threads
          << " engine=" << static_cast<int>(engine);
    }
  }
}

}  // namespace
}  // namespace pathalg

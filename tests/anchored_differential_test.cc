// Anchored evaluation (plan/evaluator.cc): a σ with a first-node conjunct
// evaluates its child *seeded* from the nodes that conjunct admits, and
// the fused ϕ below it walks only from those seeds. The seeds are purely
// physical, so the σ's output must be byte-identical — the same paths in
// the same order — to the hand-built reference
//
//     Select(g, Evaluate(child), cond)      (child evaluated unseeded)
//
// at every thread count, and set-equal to the kNaive spec engine, which
// never seeds. Trials draw random property graphs, random first-node
// conditions (first.name, label(first), node(1).prop, OR/NOT, a constant
// that never matches, EXISTS), optional residual conjuncts, and the plan
// shapes the seeds pass through or stop at: label atoms, a σ merged over
// Edges(G), ⋈ chains of length 1–3 (with a fused ϕ at the head half the
// time), ∪, nested σ, and the fused ϕ under all five semantics.
//
// Also here: the seeded_scans counter and the budget contract of a
// seeded ϕ (algebra/eval_budget.h, "Seeded closures").

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "algebra/core_ops.h"
#include "algebra/eval_budget.h"
#include "engine/query_engine.h"
#include "engine/workload_file.h"
#include "plan/evaluator.h"

namespace pathalg {
namespace {

const std::vector<std::string> kEdgeLabels = {"a", "b", "c"};
constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kTrialsPerShape = 120;

/// Nodes carry a label from {Person, Tag} or none, a `name` from p0..p3
/// (or none) and an integer `age` (or none); edges are labelled a/b/c or
/// unlabelled. `acyclic` orients every edge low→high so WALK terminates.
PropertyGraph TrialGraph(std::mt19937_64& rng, bool acyclic) {
  GraphBuilder b;
  const size_t n = 5 + rng() % 6;   // 5..10
  const size_t m = 8 + rng() % 13;  // 8..20
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<std::string, Value>> props;
    if (rng() % 10 < 7) {
      props.emplace_back("name", Value("p" + std::to_string(rng() % 4)));
    }
    if (rng() % 10 < 6) {
      props.emplace_back("age", Value(static_cast<int64_t>(rng() % 5)));
    }
    const char* labels[] = {"Person", "Tag", ""};
    b.AddNode(labels[rng() % 3], std::move(props));
  }
  for (size_t i = 0; i < m; ++i) {
    size_t s = rng() % n;
    size_t t = rng() % n;
    if (acyclic) {
      while (s == t) t = rng() % n;
      if (s > t) std::swap(s, t);
    }
    const std::string label =
        rng() % 10 == 0 ? std::string() : kEdgeLabels[rng() % 3];
    EXPECT_TRUE(b.AddEdge(static_cast<NodeId>(s), static_cast<NodeId>(t),
                          label)
                    .ok());
  }
  return b.Build();
}

/// One random first-node leaf.
ConditionPtr FirstNodeLeaf(std::mt19937_64& rng) {
  switch (rng() % 7) {
    case 0:
      return FirstPropEq("name", Value("p" + std::to_string(rng() % 4)));
    case 1: {
      const char* labels[] = {"Person", "Tag", "Nope"};
      return FirstLabelEq(labels[rng() % 3]);
    }
    case 2: {
      const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe,
                               CompareOp::kLt, CompareOp::kGe};
      return Condition::MakeSimple(AccessKind::kNodeProp, 1, "age",
                                   ops[rng() % 4],
                                   Value(static_cast<int64_t>(rng() % 5)));
    }
    case 3:
      return NodeLabelEq(1, "Person");
    case 4:
      return FirstPropExists("name");
    case 5:
      return FirstPropEq("name", Value("never"));  // matches no node
    default:
      return NodePropEq(1, "name", Value("p" + std::to_string(rng() % 4)));
  }
}

/// A random first-node condition: a leaf, or OR / NOT / AND of leaves.
ConditionPtr FirstNodeCondition(std::mt19937_64& rng) {
  switch (rng() % 5) {
    case 0:
      return Condition::Or(FirstNodeLeaf(rng), FirstNodeLeaf(rng));
    case 1:
      return Condition::Not(FirstNodeLeaf(rng));
    case 2:
      return Condition::And(FirstNodeLeaf(rng), FirstNodeLeaf(rng));
    default:
      return FirstNodeLeaf(rng);
  }
}

/// The σ's full condition: the first-node condition, sometimes with a
/// residual conjunct that reads more than the first node.
ConditionPtr AnchorCondition(std::mt19937_64& rng) {
  ConditionPtr c = FirstNodeCondition(rng);
  switch (rng() % 4) {
    case 0:
      return Condition::And(
          c, Condition::MakeSimple(AccessKind::kLastProp, 0, "age",
                                   CompareOp::kGe, Value(int64_t{2})));
    case 1:
      return Condition::And(LenCompare(CompareOp::kLe, 3), c);
    default:
      return c;
  }
}

PlanPtr Atom(std::mt19937_64& rng) {
  return PlanNode::Select(EdgeLabelEq(1, kEdgeLabels[rng() % 3]),
                          PlanNode::EdgesScan());
}

/// A fused ϕ: its child is the compiled form of a closure-free regex
/// (a, a/b or a|b).
PlanPtr Closure(std::mt19937_64& rng, PathSemantics semantics) {
  PlanPtr inner = Atom(rng);
  switch (rng() % 3) {
    case 0:
      inner = PlanNode::Join(std::move(inner), Atom(rng));
      break;
    case 1:
      inner = PlanNode::Union(std::move(inner), Atom(rng));
      break;
    default:
      break;
  }
  return PlanNode::Recursive(semantics, std::move(inner));
}

/// The left end of a ⋈ chain: a label atom, or (half the time) a fused
/// ϕ, which the seeds reach down the chain's left spine.
PlanPtr ChainHead(std::mt19937_64& rng, PathSemantics semantics) {
  return rng() % 2 == 0 ? Atom(rng) : Closure(rng, semantics);
}

/// A left-deep ⋈ chain of `len` operands (the compiled form of a/b/c),
/// or with probability 1/3 a right-nested one, whose outer ⋈ has a
/// non-atom right side.
PlanPtr JoinChain(std::mt19937_64& rng, size_t len, PathSemantics semantics) {
  if (len >= 2 && rng() % 3 == 0) {
    return PlanNode::Join(ChainHead(rng, semantics),
                          JoinChain(rng, len - 1, semantics));
  }
  PlanPtr p = ChainHead(rng, semantics);
  for (size_t i = 1; i < len; ++i) p = PlanNode::Join(p, Atom(rng));
  return p;
}

enum class Shape { kAtom, kJoinChain, kUnion, kNestedSelect, kClosure };

PlanPtr ChildPlan(std::mt19937_64& rng, Shape shape,
                  PathSemantics semantics) {
  switch (shape) {
    case Shape::kAtom:
      return Atom(rng);
    case Shape::kJoinChain:
      return JoinChain(rng, 1 + rng() % 3, semantics);
    case Shape::kUnion:
      return PlanNode::Union(JoinChain(rng, 1 + rng() % 2, semantics),
                             JoinChain(rng, 1 + rng() % 2, semantics));
    case Shape::kNestedSelect:
      return PlanNode::Select(FirstNodeCondition(rng),
                              JoinChain(rng, 1 + rng() % 2, semantics));
    case Shape::kClosure:
      return Closure(rng, semantics);
  }
  return nullptr;
}

/// `seeded_count` (optional) receives how many ϕ nodes ran seeded at t = 1.
::testing::AssertionResult RunAnchoredTrial(const PropertyGraph& g,
                                            const PlanPtr& child,
                                            const ConditionPtr& cond,
                                            const std::string& context,
                                            size_t* seeded_count = nullptr) {
  auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << context << " plan " << PlanNode::Select(cond, child)
                                         ->ToAlgebraString()
           << ": " << what;
  };
  const PlanPtr plan = PlanNode::Select(cond, child);
  Result<PathSet> unseeded = Evaluate(g, child);
  if (!unseeded.ok()) return fail("child: " + unseeded.status().ToString());
  const PathSet reference = Select(g, *unseeded, *cond);

  for (size_t threads : kThreadCounts) {
    EvalOptions options;
    options.threads = threads;
    options.min_chunk = 1;
    EvalStats stats;
    options.stats = &stats;
    Result<PathSet> seeded = Evaluate(g, plan, options);
    if (threads == 1 && seeded_count != nullptr) {
      *seeded_count = stats.seeded_scans;
    }
    if (!seeded.ok()) {
      return fail("threads=" + std::to_string(threads) + ": " +
                  seeded.status().ToString());
    }
    if (seeded->paths() != reference.paths()) {
      return fail("threads=" + std::to_string(threads) + ": seeded (" +
                  std::to_string(seeded->size()) +
                  " paths) != reference byte-for-byte (" +
                  std::to_string(reference.size()) + " paths)\n  seeded: " +
                  seeded->ToString(g) + "\n  reference: " +
                  reference.ToString(g));
    }
  }
  EvalOptions spec;
  spec.engine = PhiEngine::kNaive;
  spec.fuse_closures = false;
  Result<PathSet> naive = Evaluate(g, plan, spec);
  if (!naive.ok()) return fail("kNaive: " + naive.status().ToString());
  if (*naive != reference) {
    return fail("kNaive (" + std::to_string(naive->size()) +
                " paths) != reference set (" +
                std::to_string(reference.size()) + " paths)");
  }
  return ::testing::AssertionSuccess();
}

constexpr PathSemantics kAllSemantics[] = {
    PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
    PathSemantics::kSimple, PathSemantics::kShortest};

/// `semantics` is the closures' semantics for kClosure; the other shapes
/// draw one per trial.
void RunFuzzLoop(Shape shape, PathSemantics semantics) {
  size_t seeded_trials = 0;
  for (uint64_t trial = 1; trial <= kTrialsPerShape; ++trial) {
    const uint64_t seed = trial * 2654435761u +
                          static_cast<uint64_t>(shape) * 97 +
                          static_cast<uint64_t>(semantics);
    std::mt19937_64 rng(seed);
    if (shape != Shape::kClosure) semantics = kAllSemantics[rng() % 5];
    // WALK closures run on DAGs, where their answers are finite.
    const PropertyGraph g =
        TrialGraph(rng, semantics == PathSemantics::kWalk);
    const ConditionPtr cond = AnchorCondition(rng);
    const PlanPtr child = ChildPlan(rng, shape, semantics);
    size_t seeded = 0;
    EXPECT_TRUE(RunAnchoredTrial(
        g, child, cond,
        "trial " + std::to_string(trial) + " seed " + std::to_string(seed),
        &seeded));
    if (::testing::Test::HasFailure()) return;  // one repro is enough
    if (seeded > 0) ++seeded_trials;
  }
  // Every shape but the lone atom puts a fused ϕ where seeds reach it in
  // some trials; the fuzz must exercise seeding, not only its absence.
  if (shape == Shape::kAtom) {
    EXPECT_EQ(seeded_trials, 0u);
  } else {
    EXPECT_GT(seeded_trials, kTrialsPerShape / 10);
  }
}

TEST(AnchoredDifferentialFuzz, LabelAtom) {
  RunFuzzLoop(Shape::kAtom, PathSemantics::kWalk);
}

TEST(AnchoredDifferentialFuzz, JoinChains) {
  RunFuzzLoop(Shape::kJoinChain, PathSemantics::kWalk);
}

TEST(AnchoredDifferentialFuzz, Union) {
  RunFuzzLoop(Shape::kUnion, PathSemantics::kWalk);
}

TEST(AnchoredDifferentialFuzz, NestedSelect) {
  RunFuzzLoop(Shape::kNestedSelect, PathSemantics::kWalk);
}

TEST(AnchoredDifferentialFuzz, MergedSelectOverEdges) {
  // σ[first-node ∧ label(edge(1)) = L (∧ residual)](Edges(G)): the shape
  // select-merge folds an anchored one-hop into.
  for (uint64_t trial = 1; trial <= kTrialsPerShape; ++trial) {
    const uint64_t seed = trial * 40503u + 11;
    std::mt19937_64 rng(seed);
    const PropertyGraph g = TrialGraph(rng, false);
    ConditionPtr cond = Condition::And(
        AnchorCondition(rng), EdgeLabelEq(1, kEdgeLabels[rng() % 3]));
    if (rng() % 2 == 0) {
      cond = Condition::And(EdgeLabelEq(1, kEdgeLabels[rng() % 3]),
                            FirstNodeCondition(rng));
    }
    EXPECT_TRUE(RunAnchoredTrial(
        g, PlanNode::EdgesScan(), cond,
        "trial " + std::to_string(trial) + " seed " + std::to_string(seed)));
    if (::testing::Test::HasFailure()) break;
  }
}

class AnchoredClosureFuzz : public ::testing::TestWithParam<PathSemantics> {};

TEST_P(AnchoredClosureFuzz, FusedPhi) {
  RunFuzzLoop(Shape::kClosure, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AnchoredDifferentialFuzz, AnchoredClosureFuzz,
    ::testing::Values(PathSemantics::kWalk, PathSemantics::kTrail,
                      PathSemantics::kAcyclic, PathSemantics::kSimple,
                      PathSemantics::kShortest),
    [](const ::testing::TestParamInfo<PathSemantics>& info) {
      return std::string(PathSemanticsToString(info.param));
    });

// The social_mixed graph of the served closure benchmark: 40 persons.
constexpr const char* kClosureGraph =
    "social persons=40 messages=80 ring=2 chords=40 likes=2 seed=7";

TEST(AnchoredEvaluationTest, AnchoredShortestClosureIsSeeded) {
  Result<PropertyGraph> g = engine::BuildWorkloadGraph(kClosureGraph);
  ASSERT_TRUE(g.ok()) << g.status();
  engine::QueryEngine session(std::move(g).value());
  engine::ExecStats anchored;
  auto a = session.Execute(
      "MATCH ANY SHORTEST p = (?x {name:\"person3\"})-[:Knows+]->(?y)",
      &anchored);
  ASSERT_TRUE(a.ok()) << a.status();
  engine::ExecStats all_pairs;
  auto u = session.Execute("MATCH ANY SHORTEST p = (?x)-[:Knows+]->(?y)",
                           &all_pairs);
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_GE(anchored.eval.seeded_scans, 1u);
  EXPECT_EQ(all_pairs.eval.seeded_scans, 0u);
  EXPECT_EQ(anchored.eval.fused_closure_hits, 1u);
  EXPECT_LT(anchored.eval.frontier_states_expanded,
            all_pairs.eval.frontier_states_expanded);
  // The anchored answer is the all-pairs answer's paths from person3.
  size_t from_anchor = 0;
  for (const Path& p : *u) {
    const Value* name = session.graph().NodeProperty(p.First(), "name");
    if (name != nullptr && *name == Value("person3")) ++from_anchor;
  }
  EXPECT_EQ(a->size(), from_anchor);
}

TEST(AnchoredEvaluationTest, AnchoredHopsComputeNoSeeds) {
  // No fused ϕ below the anchor: nothing would read seeds, so the σ
  // computes none and the hops evaluate exactly as before.
  Result<PropertyGraph> g = engine::BuildWorkloadGraph(kClosureGraph);
  ASSERT_TRUE(g.ok()) << g.status();
  engine::QueryEngine session(std::move(g).value());
  engine::ExecStats stats;
  auto r = session.Execute(
      "MATCH ALL WALK p = (?x {name:\"person3\"})-[:Knows/:Knows]->(?y)",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->size(), 0u);
  EXPECT_EQ(stats.eval.seeded_scans, 0u);
  EXPECT_EQ(stats.eval.fused_closure_hits, 0u);

  // The same anchor over a shortest closure then a hop: the seeds reach
  // the ϕ down the ⋈'s left side.
  const PlanPtr knows =
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
  const PlanPtr closure_hop = PlanNode::Select(
      FirstPropEq("name", Value("person3")),
      PlanNode::Join(PlanNode::Recursive(PathSemantics::kShortest, knows),
                     knows));
  EvalOptions options;
  options.stats = &stats.eval;
  auto seeded = Evaluate(session.graph(), closure_hop, options);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_EQ(stats.eval.seeded_scans, 1u);
  auto child = Evaluate(session.graph(), closure_hop->child());
  ASSERT_TRUE(child.ok()) << child.status();
  EXPECT_EQ(seeded->paths(),
            Select(session.graph(), *child, *closure_hop->condition()).paths());
}

/// A 6-node Knows chain v0 → … → v5 whose nodes carry name = v<i>.
PropertyGraph NamedChain() {
  GraphBuilder b;
  for (int i = 0; i < 6; ++i) {
    b.AddNode("Person", {{"name", Value("v" + std::to_string(i))}});
  }
  for (NodeId i = 0; i + 1 < 6; ++i) {
    EXPECT_TRUE(b.AddEdge(i, i + 1, "Knows").ok());
  }
  return b.Build();
}

TEST(AnchoredEvaluationTest, SeededPhiBudgetCountsTheSeededClosure) {
  // All-pairs Knows+ on the chain has 15 paths, the closure from v3 has
  // 2. With max_paths = 10 the unseeded ϕ is refused, the seeded one
  // answers; kNaive (never seeded) is still refused.
  const PropertyGraph g = NamedChain();
  const PlanPtr closure = PlanNode::Recursive(
      PathSemantics::kWalk,
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan()));
  const PlanPtr anchored =
      PlanNode::Select(FirstPropEq("name", Value("v3")), closure);
  EvalOptions options;
  options.limits.max_paths = 10;

  auto all_pairs = Evaluate(g, closure, options);
  ASSERT_FALSE(all_pairs.ok());
  EXPECT_EQ(all_pairs.status().ToString(),
            BudgetExhausted("max_paths").ToString());

  EvalStats stats;
  options.stats = &stats;
  auto seeded = Evaluate(g, anchored, options);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_EQ(seeded->size(), 2u);
  EXPECT_EQ(stats.seeded_scans, 1u);
  EXPECT_EQ(stats.peak_intermediate_paths, 2u);

  EvalOptions spec = options;
  spec.engine = PhiEngine::kNaive;
  spec.stats = nullptr;
  auto naive = Evaluate(g, anchored, spec);
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().ToString(),
            BudgetExhausted("max_paths").ToString());
}

TEST(AnchoredEvaluationTest, SeededPhiTruncatesInTheSeededOrder) {
  // Under truncate the seeded ϕ returns a prefix of its own order: the
  // first max_paths paths from the seeds, whatever the other nodes hold.
  const PropertyGraph g = NamedChain();
  const PlanPtr closure = PlanNode::Recursive(
      PathSemantics::kWalk,
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan()));
  const ConditionPtr from_v1 = FirstPropEq("name", Value("v1"));
  auto full = Evaluate(g, PlanNode::Select(from_v1, closure));
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->size(), 4u);

  for (size_t threads : {1, 4}) {
    EvalOptions options;
    options.limits.max_paths = 3;
    options.limits.truncate = true;
    options.threads = threads;
    options.min_chunk = 1;
    auto truncated = Evaluate(g, PlanNode::Select(from_v1, closure), options);
    ASSERT_TRUE(truncated.ok()) << truncated.status();
    const std::vector<Path> prefix(full->paths().begin(),
                                   full->paths().begin() + 3);
    EXPECT_EQ(truncated->paths(), prefix) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pathalg

// Reproduces Figure 6: the predicate-pushdown rewrite. Prints the 6a and
// 6b plans, verifies result equality, and benchmarks both across graph
// scales — the paper's claim is that 6b "reduce[s] the number of
// intermediate results (paths) in advance, and consequently, reduce[s]
// the number of join comparisons".
//
// The evaluator applies the same idea physically to closures: a σ with
// a first-node conjunct evaluates a fused ϕ below it seeded from the
// nodes it admits (plan/evaluator.cc, anchored evaluation). The anchored
// cases time that seeding on a shortest closure, alone and at the head
// of a ⋈ chain, and the artifact asserts that the seeded answer is the
// filtered unseeded one, byte for byte.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"

namespace pathalg {
namespace {

using bench::Check;

PlanPtr KnowsAtom() {
  return PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
}

PlanPtr Plan6a(const Value& name) {
  PlanPtr knows = KnowsAtom();
  return PlanNode::Select(FirstPropEq("name", name),
                          PlanNode::Join(knows, knows));
}

/// σ[first.name = v](ϕShortest(Knows)): the anchored closure shape.
PlanPtr PlanAnchoredShortest(const Value& name) {
  return PlanNode::Select(
      FirstPropEq("name", name),
      PlanNode::Recursive(PathSemantics::kShortest, KnowsAtom()));
}

/// σ[first.name = v](ϕShortest(Knows) ⋈ Knows ⋈ Knows): the seeds reach
/// the ϕ down the ⋈ chain's left spine.
PlanPtr PlanAnchoredHops(const Value& name) {
  PlanPtr closure = PlanNode::Recursive(PathSemantics::kShortest, KnowsAtom());
  return PlanNode::Select(
      FirstPropEq("name", name),
      PlanNode::Join(PlanNode::Join(std::move(closure), KnowsAtom()),
                     KnowsAtom()));
}

// The closure graph of the served benchmark has 40 persons.
constexpr size_t kAnchoredPersons = 40;

/// Asserts that `plan` (a σ over the anchored subtree), optimized, runs
/// seeded and evaluates to exactly Select(Evaluate(child)) with the child
/// unseeded.
void CheckSeededEqualsFiltered(const PlanPtr& plan, const char* what) {
  PropertyGraph g = bench::ScaledSocialGraph(kAnchoredPersons);
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  Result<PathSet> seeded = Evaluate(g, Optimize(plan).plan, options);
  Result<PathSet> child = Evaluate(g, plan->child());
  Check(seeded.ok() && child.ok(), "anchored plans evaluate");
  const PathSet filtered = Select(g, *child, *plan->condition());
  Check(seeded->paths() == filtered.paths(),
        "seeded evaluation equals the filtered unseeded answer");
  Check(stats.seeded_scans >= 1, "the anchored plan ran seeded");
  std::printf("%s: %zu paths seeded == filtered (%zu unfiltered)\n", what,
              seeded->size(), child->size());
}

void PrintFigure6() {
  bench::PrintHeader("Figure 6 — predicate pushdown");
  Figure1Ids ids;
  PropertyGraph g = MakeFigure1Graph(&ids);

  PlanPtr plan_a = Plan6a(Value("Moe"));
  OptimizeResult opt = Optimize(plan_a);
  std::printf("(a) basic query plan:\n%s\n",
              plan_a->ToTreeString().c_str());
  std::printf("(b) optimized query plan (rules:");
  for (const std::string& rule : opt.applied) {
    std::printf(" %s", rule.c_str());
  }
  std::printf("):\n%s\n", opt.plan->ToTreeString().c_str());

  PathSet before = *Evaluate(g, plan_a);
  PathSet after = *Evaluate(g, opt.plan);
  Check(before == after, "pushdown preserves the result");
  std::printf("both plans return: %s\n\n", before.ToString(g).c_str());

  CheckSeededEqualsFiltered(PlanAnchoredShortest(Value("person3")),
                            "anchored SHORTEST Knows+");
  CheckSeededEqualsFiltered(PlanAnchoredHops(Value("person3")),
                            "anchored SHORTEST Knows+/Knows/Knows");
}

void BM_Figure6Unoptimized(benchmark::State& state) {
  PropertyGraph g =
      bench::ScaledSocialGraph(static_cast<size_t>(state.range(0)));
  PlanPtr plan = Plan6a(Value("person0"));
  for (auto _ : state) {
    auto r = Evaluate(g, plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Figure6Unoptimized)->Arg(64)->Arg(256)->Arg(1024);

void BM_Figure6Optimized(benchmark::State& state) {
  PropertyGraph g =
      bench::ScaledSocialGraph(static_cast<size_t>(state.range(0)));
  PlanPtr plan = Optimize(Plan6a(Value("person0"))).plan;
  for (auto _ : state) {
    auto r = Evaluate(g, plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Figure6Optimized)->Arg(64)->Arg(256)->Arg(1024);

void BM_AnchoredShortest(benchmark::State& state) {
  PropertyGraph g =
      bench::ScaledSocialGraph(static_cast<size_t>(state.range(0)));
  PlanPtr plan = PlanAnchoredShortest(Value("person3"));
  for (auto _ : state) {
    auto r = Evaluate(g, plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AnchoredShortest)->Arg(kAnchoredPersons);

void BM_AnchoredHops(benchmark::State& state) {
  PropertyGraph g =
      bench::ScaledSocialGraph(static_cast<size_t>(state.range(0)));
  PlanPtr plan = Optimize(PlanAnchoredHops(Value("person3"))).plan;
  for (auto _ : state) {
    auto r = Evaluate(g, plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AnchoredHops)->Arg(kAnchoredPersons);

void BM_OptimizerItself(benchmark::State& state) {
  // Plan rewriting cost (it runs once per query; must be trivially cheap).
  PlanPtr plan = Plan6a(Value("person0"));
  for (auto _ : state) {
    auto r = Optimize(plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OptimizerItself);

}  // namespace
}  // namespace pathalg

int main(int argc, char** argv) {
  return pathalg::bench::BenchMain(argc, argv, pathalg::PrintFigure6);
}

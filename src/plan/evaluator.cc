#include "plan/evaluator.h"

#include <algorithm>
#include <variant>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "algebra/core_ops.h"
#include "algebra/eval_budget.h"
#include "algebra/frontier_closure.h"
#include "common/timing.h"
#include "path/path_ops.h"
#include "regex/ast.h"

namespace pathalg {

void EvalStats::Merge(const EvalStats& other) {
  // Sum every counter/timing; max the high-water mark. Both operations
  // are associative and commutative, so per-worker and per-query partial
  // stats combine to the same totals under any merge grouping
  // (tested by EvalStatsMergeTest.MergeIsAssociative).
  wall_us += other.wall_us;
  nodes_evaluated += other.nodes_evaluated;
  peak_intermediate_paths =
      std::max(peak_intermediate_paths, other.peak_intermediate_paths);
  for (size_t i = 0; i < kNumPlanKinds; ++i) {
    op_us[i] += other.op_us[i];
    op_count[i] += other.op_count[i];
    op_serial_fallback[i] += other.op_serial_fallback[i];
  }
  label_scan_hits += other.label_scan_hits;
  chunks_executed += other.chunks_executed;
  steal_count += other.steal_count;
  fused_closure_hits += other.fused_closure_hits;
  seeded_scans += other.seeded_scans;
  frontier_states_expanded += other.frontier_states_expanded;
  frontier_paths_reconstructed += other.frontier_paths_reconstructed;
}

namespace {

using EvalValue = std::variant<PathSet, SolutionSpace>;

/// Records one operator application into `stats` (null = no-op): own wall
/// time (children excluded — the caller passes the instant its own work
/// began) plus the intermediate-cardinality high-water mark.
void RecordOp(EvalStats* stats, const PlanNode& node,
              SteadyClock::time_point own_start, const EvalValue& out) {
  if (stats == nullptr) return;
  const size_t k = static_cast<size_t>(node.kind());
  stats->op_us[k] += MicrosSince(own_start);
  stats->op_count[k] += 1;
  stats->nodes_evaluated += 1;
  if (const PathSet* ps = std::get_if<PathSet>(&out)) {
    stats->peak_intermediate_paths =
        std::max(stats->peak_intermediate_paths, ps->size());
  }
}

Result<EvalValue> ApplyOp(const PropertyGraph& g, const PlanNode& node,
                          std::vector<EvalValue>& inputs,
                          const EvalOptions& options);

/// Anchored evaluation. A σ whose condition has *first-node conjuncts*
/// (top-level conjuncts whose every leaf reads `first.*`, `label(first)`
/// or `node(1)`) can only keep paths starting at a node those conjuncts
/// admit. When a fused ϕ below can use them, the σ computes that seed set
/// S in one pass over the nodes and evaluates its child *seeded*. A
/// seeded subtree may drop any path whose first node is not in S, and
/// must emit every path whose first node is in S in exactly the unseeded
/// order. The σ then applies its full condition, which implies First ∈
/// S, so its output is the unseeded one byte for byte (see
/// algebra/eval_budget.h for what a seeded ϕ counts against its budgets).
/// Rules: the fused ϕ walks only from S; ⋈ passes S to its left side
/// (First(p1 ◦ p2) = First(p1)); ∪ passes S to both sides; a nested σ
/// narrows S by its own conjuncts; every other operator ignores S, which
/// is always allowed. Seeds are ascending node ids; null means unseeded.
/// Only PhiEngine::kOptimized with fuse_closures seeds: the spec
/// configuration is the materialize-then-filter reference the seeded
/// path is tested against.
using Seeds = std::vector<NodeId>;

Result<EvalValue> Eval(const PropertyGraph& g, const PlanNode& node,
                       const EvalOptions& options,
                       const Seeds* seeds = nullptr);

/// Collects the top-level conjuncts of `c` that read only the first node.
void FirstNodeConjuncts(const Condition& c,
                        std::vector<const Condition*>* out) {
  if (c.kind() == Condition::Kind::kAnd) {
    FirstNodeConjuncts(*c.left(), out);
    FirstNodeConjuncts(*c.right(), out);
  } else if (RefersOnlyToFirstNode(c)) {
    out->push_back(&c);
  }
}

/// The nodes n (among `within`, or all nodes when it is null) at which
/// every conjunct holds. A first-node conjunct reads only node(1), so it
/// holds for a path iff it holds for the zero-length path at its first
/// node.
Seeds SeedNodes(const PropertyGraph& g,
                const std::vector<const Condition*>& conjuncts,
                const Seeds* within) {
  Seeds out;
  auto admit = [&](NodeId n) {
    const Path p = Path::SingleNode(n);
    for (const Condition* c : conjuncts) {
      if (!c->Evaluate(g, p)) return;
    }
    out.push_back(n);
  };
  if (within != nullptr) {
    for (NodeId n : *within) admit(n);
  } else {
    for (NodeId n = 0; n < g.num_nodes(); ++n) admit(n);
  }
  return out;
}

/// Matches σ_{label(edge(1))="L"}(Edges(G)) — the shape every compiled
/// regex label atom takes. Such subtrees are answered directly from the
/// graph's label CSR slice: same result as scan-then-filter (a missing
/// label matches nothing either way), but only |edges with L| paths are
/// ever materialized. Returns the matched condition, or nullptr.
const Condition* MatchEdgeLabelScan(const PlanNode& node) {
  if (node.kind() != PlanKind::kSelect) return nullptr;
  if (node.children().size() != 1 ||
      node.child()->kind() != PlanKind::kEdgesScan) {
    return nullptr;
  }
  const Condition* c = node.condition().get();
  if (c == nullptr || c->kind() != Condition::Kind::kSimple) return nullptr;
  if (c->access() != AccessKind::kEdgeLabel || c->position() != 1) {
    return nullptr;
  }
  if (c->op() != CompareOp::kEq || !c->constant().is_string()) return nullptr;
  return c;
}

/// Inverts the compile.cc regex→plan mapping for the closure-free shapes
/// the frontier engine fuses: σ_{label(edge(1))=L}(Edges) → :L,
/// Join → concatenation, Union → alternation. Returns nullptr when the
/// subtree is not the compiled form of a closure-free regex (e.g. it
/// contains a nested ϕ, a NodesScan from `*`/`?` lowering, or a
/// hand-built filter) — the caller then evaluates the subtree normally.
RegexPtr ReconstructRegex(const PlanNode& node) {
  if (const Condition* c = MatchEdgeLabelScan(node)) {
    return RegexNode::Label(c->constant().AsString());
  }
  if (node.children().size() != 2) return nullptr;
  if (node.kind() != PlanKind::kJoin && node.kind() != PlanKind::kUnion) {
    return nullptr;
  }
  RegexPtr l = ReconstructRegex(*node.children()[0]);
  if (l == nullptr) return nullptr;
  RegexPtr r = ReconstructRegex(*node.children()[1]);
  if (r == nullptr) return nullptr;
  return node.kind() == PlanKind::kJoin ? RegexNode::Concat(std::move(l),
                                                            std::move(r))
                                        : RegexNode::Union(std::move(l),
                                                           std::move(r));
}

/// The closure-free regex of a ϕ that Eval runs fused under `options`,
/// or nullptr when `node` is not such a ϕ.
RegexPtr FusedClosureRegex(const PlanNode& node, const EvalOptions& options) {
  if (node.kind() != PlanKind::kRecursive ||
      options.engine != PhiEngine::kOptimized || !options.fuse_closures) {
    return nullptr;
  }
  RegexPtr inner = ReconstructRegex(*node.child());
  return inner != nullptr && FrontierEligible(inner) ? inner : nullptr;
}

/// True when seeds handed to `node` reach a fused ϕ, the operator that
/// uses them, along the rules above (σ's child, ⋈'s left side, both
/// sides of ∪). A σ whose seeds nothing would read computes none.
bool UsesSeeds(const PlanNode& node, const EvalOptions& options) {
  switch (node.kind()) {
    case PlanKind::kRecursive:
      return FusedClosureRegex(node, options) != nullptr;
    case PlanKind::kSelect:
      return UsesSeeds(*node.child(), options);
    case PlanKind::kJoin:
      return UsesSeeds(*node.child(0), options);
    case PlanKind::kUnion:
      return UsesSeeds(*node.child(0), options) ||
             UsesSeeds(*node.child(1), options);
    default:
      return false;
  }
}

// GCC 12 flags the Result<variant<...>> moves in Eval/ApplyOp returns —
// and, at -O2 (RelWithDebInfo, the TSan build), the inlined
// std::get<SolutionSpace> move in EvaluateToSpace — as
// maybe-uninitialized (a known std::variant false positive); every path
// that reaches those returns has fully constructed the value. The pop is
// at the end of the file so both regions stay covered.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
Result<EvalValue> Eval(const PropertyGraph& g, const PlanNode& node,
                       const EvalOptions& options, const Seeds* seeds) {
  // Per-plan-node cancellation point: covers σ/⋈ and the scans, whose
  // operator kernels return plain PathSets and so cannot trip mid-op;
  // the ϕ engines additionally poll at their own round/segment/layer
  // boundaries via options.limits.cancel.
  if (CancelRequested(options.limits.cancel)) {
    return EvalCancelled(*options.limits.cancel);
  }
  if (const Condition* c = MatchEdgeLabelScan(node)) {
    const SteadyClock::time_point own_start = SteadyClock::now();
    EvalValue out(
        EdgesWithLabelOf(g, g.FindLabel(c->constant().AsString())));
    if (options.stats != nullptr) {
      // Book both collapsed operators so op_count matches the slow path;
      // the scan's time is attributed to the Select.
      options.stats->op_count[static_cast<size_t>(PlanKind::kEdgesScan)] += 1;
      options.stats->nodes_evaluated += 1;
      options.stats->label_scan_hits += 1;
    }
    RecordOp(options.stats, node, own_start, out);
    return out;
  }
  // NFA-fused ϕ: when the closure's child subtree is the compiled form of
  // a closure-free regex, skip evaluating it (the base set is never
  // materialized) and run the product-automaton frontier engine instead,
  // only from the seeds when seeded. Unlike the label-scan fast path the
  // collapsed children are *not* booked into op_count — no operator ran
  // for them.
  if (node.kind() == PlanKind::kRecursive) {
    if (RegexPtr inner = FusedClosureRegex(node, options)) {
      const SteadyClock::time_point own_start = SteadyClock::now();
      const ParallelOptions par{options.threads, options.min_chunk};
      ParallelStats pstats;
      FrontierClosureStats fstats;
      Result<PathSet> r = FrontierClosure(g, inner, node.semantics(),
                                          options.limits, par, &pstats,
                                          &fstats, seeds);
      if (options.stats != nullptr) {  // a failed ϕ still reports its work
        options.stats->chunks_executed += pstats.chunks_executed;
        options.stats->steal_count += pstats.steal_count;
        options.stats->op_serial_fallback[static_cast<size_t>(
            PlanKind::kRecursive)] += pstats.serial_fallbacks;
        options.stats->fused_closure_hits += 1;
        if (seeds != nullptr) options.stats->seeded_scans += 1;
        options.stats->frontier_states_expanded += fstats.states_expanded;
        options.stats->frontier_paths_reconstructed +=
            fstats.paths_reconstructed;
        // On a refusal no PathSet reaches RecordOp; the accumulator the
        // engine held when it returned is the node's high-water mark.
        options.stats->peak_intermediate_paths = std::max(
            options.stats->peak_intermediate_paths, fstats.accumulated_paths);
      }
      if (!r.ok()) {
        // Book the node even on a budget error, mirroring the non-fused
        // path where children evaluate before ϕ fails — callers attribute
        // the cost of failed evaluations (see EvalOptions::stats).
        if (options.stats != nullptr) {
          const size_t k = static_cast<size_t>(node.kind());
          options.stats->op_us[k] += MicrosSince(own_start);
          options.stats->op_count[k] += 1;
          options.stats->nodes_evaluated += 1;
        }
        return r.status();
      }
      EvalValue out(std::move(r).value());
      RecordOp(options.stats, node, own_start, out);
      return out;
    }
  }
  // Anchored evaluation: a σ with first-node conjuncts above a fused ϕ
  // seeds its child. The pass over the nodes is the σ's own work.
  Seeds own;
  SteadyClock::duration seeding{};
  if (node.kind() == PlanKind::kSelect && UsesSeeds(*node.child(), options)) {
    const SteadyClock::time_point seed_start = SteadyClock::now();
    std::vector<const Condition*> conjuncts;
    FirstNodeConjuncts(*node.condition(), &conjuncts);
    if (!conjuncts.empty()) {
      own = SeedNodes(g, conjuncts, seeds);
      seeds = &own;
    }
    seeding = SteadyClock::now() - seed_start;
  }
  // Evaluate children first (all operators are strict). σ and ∪ pass the
  // seeds on to every child and ⋈ to its left side; every other operator
  // drops them.
  std::vector<EvalValue> inputs;
  inputs.reserve(node.children().size());
  for (size_t i = 0; i < node.children().size(); ++i) {
    const bool pass = node.kind() == PlanKind::kSelect ||
                      node.kind() == PlanKind::kUnion ||
                      (node.kind() == PlanKind::kJoin && i == 0);
    PATHALG_ASSIGN_OR_RETURN(
        EvalValue v,
        Eval(g, *node.children()[i], options, pass ? seeds : nullptr));
    inputs.push_back(std::move(v));
  }
  const SteadyClock::time_point own_start = SteadyClock::now() - seeding;
  PATHALG_ASSIGN_OR_RETURN(EvalValue out, ApplyOp(g, node, inputs, options));
  RecordOp(options.stats, node, own_start, out);
  return EvalValue(std::move(out));
}

/// Applies one operator to its already-evaluated inputs.
Result<EvalValue> ApplyOp(const PropertyGraph& g, const PlanNode& node,
                          std::vector<EvalValue>& inputs,
                          const EvalOptions& options) {
  auto paths = [&](size_t i) -> PathSet& {
    return std::get<PathSet>(inputs[i]);
  };
  const ParallelOptions par{options.threads, options.min_chunk};
  // Workers accumulate into pool-local slots; this folds the merged
  // region counters into the (calling-thread-only) EvalStats.
  ParallelStats pstats;
  auto fold_parallel = [&]() {
    if (options.stats == nullptr) return;
    options.stats->chunks_executed += pstats.chunks_executed;
    options.stats->steal_count += pstats.steal_count;
    options.stats->op_serial_fallback[static_cast<size_t>(node.kind())] +=
        pstats.serial_fallbacks;
  };
  switch (node.kind()) {
    case PlanKind::kNodesScan:
      return EvalValue(NodesOf(g));
    case PlanKind::kEdgesScan:
      return EvalValue(EdgesOf(g));
    case PlanKind::kSelect: {
      EvalValue out(Select(g, paths(0), *node.condition(), par, &pstats));
      fold_parallel();
      // σ/⋈ run to completion (their kernels return plain PathSets), so
      // a trip during the operator surfaces here, at the chunk-merge
      // boundary, before the result can flow further up the plan.
      if (CancelRequested(options.limits.cancel)) {
        return EvalCancelled(*options.limits.cancel);
      }
      return out;
    }
    case PlanKind::kJoin: {
      EvalValue out(Join(paths(0), paths(1), par, &pstats));
      fold_parallel();
      if (CancelRequested(options.limits.cancel)) {
        return EvalCancelled(*options.limits.cancel);
      }
      return out;
    }
    case PlanKind::kUnion:
      return EvalValue(Union(paths(0), paths(1)));
    case PlanKind::kIntersect:
      return EvalValue(Intersect(paths(0), paths(1)));
    case PlanKind::kDifference:
      return EvalValue(Difference(paths(0), paths(1)));
    case PlanKind::kRecursive: {
      size_t accumulated = 0;
      Result<PathSet> r = Recursive(paths(0), node.semantics(),
                                    options.limits, options.engine, par,
                                    &pstats, &accumulated);
      fold_parallel();  // a failed ϕ still reports its parallel work
      // As for the fused ϕ: a refusal's accumulator is its high-water
      // mark, since no PathSet reaches RecordOp.
      if (options.stats != nullptr) {
        options.stats->peak_intermediate_paths =
            std::max(options.stats->peak_intermediate_paths, accumulated);
      }
      PATHALG_RETURN_NOT_OK(r.status());
      return EvalValue(std::move(r).value());
    }
    case PlanKind::kRestrict:
      return EvalValue(RestrictPaths(paths(0), node.semantics()));
    case PlanKind::kGroupBy:
      return EvalValue(GroupBy(paths(0), node.group_key()));
    case PlanKind::kOrderBy:
      return EvalValue(
          OrderBy(std::get<SolutionSpace>(inputs[0]), node.order_key()));
    case PlanKind::kProject: {
      PATHALG_ASSIGN_OR_RETURN(
          PathSet r,
          Project(std::get<SolutionSpace>(inputs[0]), node.projection()));
      return EvalValue(std::move(r));
    }
  }
  return Status::Internal("unknown plan kind");
}

/// Returns the small blocks a refused evaluation freed to the allocator
/// proper. A budget or cancel trip can drop millions of small Path
/// buffers at once; glibc parks them in fastbins and consolidates them
/// on the next large request, which would charge the next (cheap) query
/// tens of milliseconds. Trimming here makes the refusal pay its own
/// cleanup.
void ReleaseRefusedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// Shared prologue/epilogue of the two public entry points: resets the
/// stats collector, runs `body`, and stamps total wall time (errors
/// included, so failed evaluations still report their cost — the
/// post-refusal trim too).
template <typename T, typename Body>
Result<T> Timed(const EvalOptions& options, Body body) {
  if (options.stats != nullptr) *options.stats = EvalStats();
  const SteadyClock::time_point start = SteadyClock::now();
  Result<T> r = body();
  if (!r.ok() && r.status().IsResourceExhausted()) ReleaseRefusedMemory();
  if (options.stats != nullptr) options.stats->wall_us = MicrosSince(start);
  return r;
}

}  // namespace

Result<PathSet> Evaluate(const PropertyGraph& g, const PlanPtr& plan,
                         const EvalOptions& options) {
  return Timed<PathSet>(options, [&]() -> Result<PathSet> {
    if (plan == nullptr) return Status::InvalidArgument("null plan");
    PATHALG_RETURN_NOT_OK(plan->Validate());
    if (plan->ProducesSpace()) {
      return Status::InvalidArgument(
          "plan root produces a solution space; use EvaluateToSpace or add "
          "a Project");
    }
    PATHALG_ASSIGN_OR_RETURN(EvalValue v, Eval(g, *plan, options));
    return std::get<PathSet>(std::move(v));
  });
}

Result<SolutionSpace> EvaluateToSpace(const PropertyGraph& g,
                                      const PlanPtr& plan,
                                      const EvalOptions& options) {
  return Timed<SolutionSpace>(options, [&]() -> Result<SolutionSpace> {
    if (plan == nullptr) return Status::InvalidArgument("null plan");
    PATHALG_RETURN_NOT_OK(plan->Validate());
    if (!plan->ProducesSpace()) {
      return Status::InvalidArgument(
          "plan root produces a set of paths; use Evaluate");
    }
    PATHALG_ASSIGN_OR_RETURN(EvalValue v, Eval(g, *plan, options));
    return std::get<SolutionSpace>(std::move(v));
  });
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace pathalg

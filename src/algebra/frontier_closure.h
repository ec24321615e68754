#ifndef PATHALG_ALGEBRA_FRONTIER_CLOSURE_H_
#define PATHALG_ALGEBRA_FRONTIER_CLOSURE_H_

/// \file frontier_closure.h
/// The NFA-fused frontier engine for ϕ: evaluates the recursive closure
/// ϕ_semantics over the set of paths matching a closure-free regex
/// `inner` directly against the graph's label CSR, without materializing
/// that base set or any intermediate join. This is the classical
/// product-automaton construction (PathFinder: "Evaluating Regular Path
/// Queries in GQL and SQL/PGQ") fused into the semi-naive frontier:
/// (node, NFA-state) pairs drive expansion and pruning, the restrictor
/// semantics are enforced *during* expansion (a walk that repeats an
/// edge under TRAIL dies at that edge, not after a full candidate path
/// was built and filtered), and Path objects are reconstructed only for
/// accepting survivors.
///
/// Round structure mirrors RecursiveSemiNaive exactly: round r extends
/// every (r)-segment result by one full segment — a product walk through
/// NFA(inner) from the path's last node to an accepting state — so the
/// max_iterations trip predicate is identical to the semi-naive engine's
/// (see algebra/eval_budget.h for the full budget contract). kShortest
/// instead runs a product BFS over NFA(inner+) per source node and
/// reconstructs all per-pair minimal paths backwards along
/// distance-decreasing product edges; it never consults max_iterations
/// (its depth is already bounded by max_path_length).
///
/// Parallel execution keeps the repo's determinism contract: the
/// non-shortest rounds chunk the frontier (each chunk walks its paths'
/// (node, state) buckets and buffers candidates), the shortest mode
/// chunks the per-source product BFS by source node, and both merge
/// chunk buffers in chunk index order on the calling thread — results,
/// partial answers and Status are byte-identical at any thread count.
/// No locks are introduced; workers only write chunk-private buffers.
///
/// Equivalence to ϕ_sem(Eval(compile(inner))) per semantics: for
/// trail/acyclic/simple a sub-walk of an admissible composition is
/// admissible (prefixes of simple paths are acyclic), so in-flight
/// pruning never kills a prefix of a surviving candidate; for shortest,
/// every segment of a globally minimal composition is segment-minimal
/// (replacement argument), so the product BFS's minima are the closure's
/// minima; walk is unrestricted. Checked against RecursiveSemiNaive and
/// the automaton baseline by tests/frontier_differential_test.cc.

#include <vector>

#include "algebra/recursive.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/property_graph.h"
#include "path/path_set.h"
#include "regex/ast.h"

namespace pathalg {

/// Counters for one FrontierClosure call; the evaluator folds them into
/// EvalStats (frontier_states_expanded / frontier_paths_reconstructed /
/// peak_intermediate_paths).
struct FrontierClosureStats {
  /// Product steps taken: one per (node, NFA-state) pair pushed during
  /// segment walks (non-shortest) or relaxed/backtracked (shortest).
  size_t states_expanded = 0;
  /// Candidate Path objects reconstructed for accepting survivors
  /// (before dedup against the accumulated result).
  size_t paths_reconstructed = 0;
  /// Distinct paths in the accumulator when the engine returned — on a
  /// budget refusal or cancellation too, where no PathSet reaches the
  /// caller (a max_paths refusal holds exactly max_paths).
  size_t accumulated_paths = 0;
};

/// True if `inner` is a closure-free regex (labels, concatenations,
/// unions) — the family the frontier engine fuses. Nested closures and
/// `?` fall back to the materializing engines.
bool FrontierEligible(const RegexPtr& inner);

/// ϕ_semantics over the base set {p : λ(p) ∈ L(inner)}, evaluated
/// NFA-fused. Precondition: FrontierEligible(inner); returns
/// InvalidArgument otherwise. Result is set-equal to
/// Recursive(Eval(CompileRegex(inner)), semantics, limits) with an
/// identical budget-trip predicate (algebra/eval_budget.h).
///
/// `sources` (ascending node ids; null = every node) seeds the closure:
/// round 0 walks, and the shortest BFS starts, only from those nodes, so
/// the result is exactly the unseeded result's paths whose first node is
/// a source, in the unseeded order. The budgets then count against the
/// *seeded* closure: max_paths and max_iterations trip on what the
/// sources reach, a max_path_length drop from another node is never
/// seen, and a truncate=true answer is a prefix of the seeded order. A
/// seeded closure can therefore answer where the all-pairs one is
/// refused (see algebra/eval_budget.h).
Result<PathSet> FrontierClosure(const PropertyGraph& g,
                                const RegexPtr& inner,
                                PathSemantics semantics,
                                const EvalLimits& limits = {},
                                const ParallelOptions& parallel = {},
                                ParallelStats* parallel_stats = nullptr,
                                FrontierClosureStats* stats = nullptr,
                                const std::vector<NodeId>* sources = nullptr);

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_FRONTIER_CLOSURE_H_

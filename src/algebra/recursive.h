#ifndef PATHALG_ALGEBRA_RECURSIVE_H_
#define PATHALG_ALGEBRA_RECURSIVE_H_

/// \file recursive.h
/// The Recursive Path Algebra (§4): ϕ computes a recursive self-join over a
/// set of paths until a fixpoint (Definition 4.1), under one of five GQL
/// path semantics (restrictors, Table 2):
///
///   ϕWalk     — all paths, no restriction (diverges on cyclic inputs);
///   ϕTrail    — no repeated edges;
///   ϕAcyclic  — no repeated nodes;
///   ϕSimple   — no repeated nodes except possibly first == last;
///   ϕShortest — per (first, last) pair, only minimum-length paths.
///
/// Two engines are provided: `kNaive` follows Definition 4.1 literally
/// (each round joins the full accumulated set with the base set), and
/// `kOptimized` uses semi-naive frontier expansion (trail/acyclic/simple/
/// walk) or length-layered best-first search (shortest). The two are
/// checked equal by differential tests; bench/phi_ablation measures the gap.
///
/// The optimized engine optionally fans each round's expansion out over
/// the chunked work-stealing pool (common/thread_pool.h). Parallel output
/// is byte-identical to serial at any thread count — candidate generation
/// (extend + filter) is chunked, while dedup, budget checks and result
/// insertion run on the calling thread in chunk order, which is exactly
/// the serial enumeration order. kNaive stays intentionally serial: it is
/// the reference the parallel engine is differentially tested against.

#include <cstddef>

#include "common/cancel.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "path/path_set.h"

namespace pathalg {

/// GQL restrictor semantics (Table 2 plus SHORTEST, §4).
enum class PathSemantics { kWalk, kTrail, kAcyclic, kSimple, kShortest };

const char* PathSemanticsToString(PathSemantics s);

/// True if `p` is admissible under `s`. Shortest is a set-level property
/// and always returns true here; it is enforced by the ϕ engines.
bool SatisfiesSemantics(const Path& p, PathSemantics s);

/// Budgets for a ϕ evaluation. ϕWalk over a cyclic input has an infinite
/// answer (§4); the budgets make evaluation total. When a budget truncates
/// a genuinely larger answer the engine either reports ResourceExhausted
/// (truncate == false, the default) or returns the partial answer
/// (truncate == true — used for "all walks up to length L" workloads).
struct EvalLimits {
  /// Paths longer than this are never produced.
  size_t max_path_length = 256;
  /// Hard cap on the number of result paths. Together with
  /// max_path_length this bounds ϕ's memory footprint; raise both for
  /// genuinely huge answers.
  size_t max_paths = 1'000'000;
  /// Hard cap on fixpoint rounds.
  size_t max_iterations = 100'000;
  /// Budget policy: error out (false) or return the partial answer (true).
  bool truncate = false;
  /// Optional cooperative-cancellation token (deadline or external),
  /// polled at every deterministic control point. Trip semantics —
  /// including why truncate never applies to a cancellation — are pinned
  /// in algebra/eval_budget.h. Not owned; must outlive the evaluation.
  const CancelToken* cancel = nullptr;
};

enum class PhiEngine { kNaive, kOptimized };

/// ϕ_semantics(base): Definition 4.1 with the restrictor filter applied to
/// every generated path (including the base paths themselves — ϕTrail of a
/// non-trail base path excludes it, matching Table 2's "returns paths that
/// do not have repeated edges"). `accumulated_paths` (optional) receives
/// the engine's accumulator size when it returned, on every outcome: the
/// answer's size on success, and on a budget refusal or cancellation the
/// paths it held (a max_paths refusal holds exactly max_paths).
Result<PathSet> Recursive(const PathSet& base, PathSemantics semantics,
                          const EvalLimits& limits = {},
                          PhiEngine engine = PhiEngine::kOptimized,
                          const ParallelOptions& parallel = {},
                          ParallelStats* parallel_stats = nullptr,
                          size_t* accumulated_paths = nullptr);

/// Keeps, for every (First, Last) pair in `s`, exactly the minimum-length
/// paths. Exposed for the optimizer and for tests.
PathSet KeepShortestPerEndpointPair(const PathSet& s);

/// The whole-path restrictor filter ρ (an extension operator): drops paths
/// violating trail/acyclic/simple, keeps per-pair minima for shortest, and
/// is the identity for walk. This is GQL's reading of a restrictor applied
/// to an existing set of paths, and the outer restrictor of §2.3 sequenced
/// path queries.
PathSet RestrictPaths(const PathSet& s, PathSemantics semantics);

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_RECURSIVE_H_

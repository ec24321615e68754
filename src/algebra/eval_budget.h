#ifndef PATHALG_ALGEBRA_EVAL_BUDGET_H_
#define PATHALG_ALGEBRA_EVAL_BUDGET_H_

/// \file eval_budget.h
/// The shared EvalLimits budget contract for every path-enumeration
/// engine: the three algebra ϕ engines (naive, semi-naive, layered
/// shortest), the NFA-fused frontier engine (frontier_closure.h) and the
/// automaton baseline (baseline/automaton_eval.h). The differential
/// contract — optimized ≡ baseline, including Status and truncation
/// points — is only as strong as the agreement of their budget edges, so
/// the edges are specified once, here, and every engine implements this
/// text:
///
/// **max_paths** — counts *distinct* result paths. The budget trips at
/// the moment a (max_paths+1)-th distinct admissible path is discovered;
/// re-discovering an already-emitted path never trips (duplicate
/// discovery order is an engine artifact, so a duplicate-sensitive check
/// would make the trip point engine-dependent). Base paths and
/// zero-length paths count like any other result. The trip predicate is
/// therefore a pure function of (graph, query, semantics, limits):
/// |answer| > max_paths. With truncate=true the engine returns exactly
/// min(|answer|, max_paths) paths — which max_paths paths is the
/// engine's own (deterministic, thread-count-independent) enumeration
/// order, and every returned path belongs to the full answer.
///
/// **max_path_length** — a silent filter while enumerating: paths longer
/// than the cap are never produced. Engines track a `dropped` flag that
/// is set when an *admissible* candidate was suppressed by the cap
/// (semantics are checked before length, so a candidate that would fail
/// the restrictor anyway never sets the flag). The flag is consulted
/// only at the natural end of a complete enumeration: truncate=false
/// reports BudgetExhausted("max_path_length"), truncate=true returns the
/// capped answer. kShortest treats the cap as a pure filter on both
/// sides (pairs whose minimal path exceeds the cap are absent, never
/// reported).
///
/// **max_iterations** — a fixpoint-round budget for the algebra engines:
/// round r composes (r+1)-segment paths, and the budget trips iff the
/// fixpoint has not been verified after max_iterations rounds (i.e. round
/// max_iterations still discovered a new path — including round 0: a
/// nonempty filtered base with max_iterations == 0 trips, an empty one
/// does not). The naive, semi-naive and frontier engines agree exactly
/// on this predicate; the automaton baseline has no fixpoint and does
/// not consult max_iterations.
///
/// **Precedence** — max_paths is checked during enumeration and returns
/// immediately; the `dropped` flag is only consulted at a completed
/// enumeration. When both budgets trip in one evaluation, every engine
/// reports BudgetExhausted("max_paths"). Pinned by
/// FrontierDifferentialTest.BudgetPrecedenceMaxPathsBeforeMaxPathLength.
///
/// **Seeded closures** — the evaluator runs a fused ϕ below a σ with a
/// first-node conjunct (`first.name = c`) *seeded*: only from the nodes
/// that conjunct admits (FrontierClosure's `sources`). Every budget above
/// then counts against the seeded closure, not the all-pairs one: an
/// anchored query whose all-pairs ϕ would trip max_paths, max_iterations
/// or max_path_length answers when its own closure fits, and under
/// truncate=true it returns a prefix in the seeded engine's order. The
/// spec configuration (PhiEngine::kNaive) never seeds, so there the
/// budgets still count against the whole closure.
///
/// **cancel** — an optional CancelToken (common/cancel.h) carried in
/// EvalLimits. Engines poll it at every deterministic control point
/// (fixpoint round, frontier segment, length layer, chunk merge, plan
/// node) and every kCancelCheckStride steps inside a DFS segment; a
/// tripped token returns EvalCancelled(token) — one kResourceExhausted
/// Status, wording fixed below — *immediately*, discarding all partial
/// results. truncate=true does NOT apply to cancellation: which paths
/// exist at the trip instant is a function of wall-clock timing, so a
/// truncated answer could never satisfy the determinism contract. A
/// deterministic budget (max_paths / max_iterations / max_path_length)
/// whose check fires before the next cancel poll wins and reports its
/// own Status; otherwise cancellation wins. *Whether* a given run trips
/// the deadline is wall-clock-dependent, so — exactly like `!timing`
/// output — deadline trips are excluded from the byte-identity surface;
/// the Status text itself is still byte-fixed per trip reason.

#include <string>

#include "common/cancel.h"
#include "common/status.h"

namespace pathalg {

/// The single Status every engine returns for a tripped budget;
/// `what` ∈ {"max_paths", "max_iterations", "max_path_length"}.
/// Identical wording across engines is part of the differential contract
/// (Status strings are compared byte-for-byte by the parity fuzz).
inline Status BudgetExhausted(const char* what) {
  return Status::ResourceExhausted(
      std::string("path enumeration exceeded budget (") + what +
      "); the answer set may be infinite under WALK semantics — "
      "use a restrictor, a length bound, or truncate=true");
}

/// The single Status every engine returns for a tripped CancelToken;
/// the reason ("deadline", "shutdown", ...) is the only varying part.
/// Partial results are always discarded (contract above).
inline Status EvalCancelled(const CancelToken& token) {
  return Status::ResourceExhausted(std::string("query cancelled (") +
                                   token.Reason() +
                                   "); partial results were discarded");
}

/// True when `limits.cancel`-style token polling should return. The
/// null check keeps the common (no token) path branch-predictable.
inline bool CancelRequested(const CancelToken* cancel) {
  return cancel != nullptr && cancel->Cancelled();
}

/// Classifies an engine Status as a cancellation (vs a budget trip or
/// any other error) by its pinned wording — the server uses this to
/// split deadline_trips from cancelled_queries.
inline bool IsCancelledStatus(const Status& s) {
  return s.IsResourceExhausted() &&
         s.message().rfind("query cancelled (", 0) == 0;
}

inline bool IsDeadlineCancelledStatus(const Status& s) {
  return s.IsResourceExhausted() &&
         s.message().rfind("query cancelled (deadline)", 0) == 0;
}

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_EVAL_BUDGET_H_

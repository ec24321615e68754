#include "algebra/frontier_closure.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "algebra/eval_budget.h"
#include "baseline/nfa.h"
#include "baseline/product_index.h"

namespace pathalg {

bool FrontierEligible(const RegexPtr& inner) {
  if (inner == nullptr) return false;
  switch (inner->kind()) {
    case RegexKind::kLabel:
      return true;
    case RegexKind::kConcat:
    case RegexKind::kUnion:
      return FrontierEligible(inner->left()) &&
             FrontierEligible(inner->right());
    case RegexKind::kPlus:
    case RegexKind::kStar:
    case RegexKind::kOptional:
      return false;  // nested closure: fall back to the materializing engines
  }
  return false;
}

namespace {

/// Walks one full segment — a product traversal of NFA(inner) from a
/// prefix path's last node to any accepting state — enforcing the
/// restrictor semantics incrementally over the *whole* path (prefix
/// included), and reconstructs a Path object only when a walk survives
/// to an accepting state. A walk that repeats an edge under TRAIL or a
/// node under ACYCLIC dies at that product step; the doomed candidate is
/// never materialized. NFA(inner) is closure-free, hence a DAG, so every
/// segment walk terminates without a depth guard.
class SegmentWalker {
 public:
  SegmentWalker(const PropertyGraph& g, const Nfa& nfa,
                const ProductIndex& index, PathSemantics semantics,
                const EvalLimits& limits)
      : g_(g), nfa_(nfa), index_(index), semantics_(semantics),
        limits_(limits) {}

  /// Appends every surviving one-segment extension of `prefix` to `out`
  /// as (path, hash); sets *dropped when an admissible candidate
  /// exceeded max_path_length (the eval_budget.h predicate).
  void Extend(const Path& prefix,
              std::vector<std::pair<Path, size_t>>* out, bool* dropped) {
    // A closed simple path repeats its endpoint on any extension —
    // mirror of the semi-naive engine's frontier prune.
    if (semantics_ == PathSemantics::kSimple && prefix.Len() > 0 &&
        prefix.First() == prefix.Last()) {
      return;
    }
    out_ = out;
    dropped_ = dropped;
    nodes_ = prefix.nodes();
    edges_ = prefix.edges();
    Walk(prefix.Last(), nfa_.start());
  }

  size_t states_expanded = 0;
  size_t paths_reconstructed = 0;

 private:
  void Walk(NodeId node, uint32_t state) {
    if (stopped_) return;
    // Arcs are label-sorted and edge runs are CSR-ordered, so the
    // enumeration order — and with it every truncation point — is a pure
    // function of the graph and the regex.
    for (const ProductIndex::Arc& arc : index_.forward[state]) {
      for (EdgeId e : g_.OutEdgesWithLabel(node, arc.label)) {
        Step(e, arc.states);
      }
    }
  }

  /// One product step: edge `e` under all NFA transitions carrying λ(e).
  /// Restrictor membership is a linear scan of the walk itself — walks
  /// are bounded by max_path_length and usually far shorter, so scanning
  /// the live nodes_/edges_ vectors beats maintaining hash sets.
  void Step(EdgeId e, const std::vector<uint32_t>& next_states) {
    // Stride poll: a single segment's product walk can be long; once the
    // token trips the walker stops emitting and unwinds. Safe because a
    // cancelled evaluation discards every partial result (eval_budget.h),
    // so the truncated candidate buffers are never observed.
    if (limits_.cancel != nullptr && --cancel_countdown_ == 0) {
      cancel_countdown_ = kCancelCheckStride;
      if (limits_.cancel->Cancelled()) stopped_ = true;
    }
    if (stopped_) return;
    const NodeId next = g_.Target(e);
    bool closes_cycle = false;  // simple: path becomes closed at `next`
    switch (semantics_) {
      case PathSemantics::kWalk:
        break;
      case PathSemantics::kTrail:
        if (std::find(edges_.begin(), edges_.end(), e) != edges_.end()) {
          return;
        }
        break;
      case PathSemantics::kAcyclic:
        if (std::find(nodes_.begin(), nodes_.end(), next) != nodes_.end()) {
          return;
        }
        break;
      case PathSemantics::kSimple:
        if (std::find(nodes_.begin(), nodes_.end(), next) != nodes_.end()) {
          if (next != nodes_.front()) return;
          closes_cycle = true;
        }
        break;
      case PathSemantics::kShortest:
        return;  // shortest uses the product BFS, never this walker
    }

    nodes_.push_back(next);
    edges_.push_back(e);

    for (uint32_t next_state : next_states) {
      ++states_expanded;
      if (nfa_.IsAccepting(next_state)) {
        if (edges_.size() > limits_.max_path_length) {
          // Admissible candidate suppressed by the cap: the walk passed
          // every restrictor check, so this is exactly the `dropped`
          // predicate of eval_budget.h.
          *dropped_ = true;
        } else {
          EmitSurvivor();
        }
      }
      if (!closes_cycle) Walk(next, next_state);
    }

    nodes_.pop_back();
    edges_.pop_back();
  }

  /// Materializes the current walk as a candidate. The only place a Path
  /// object is constructed: walks pruned mid-segment never allocate.
  void EmitSurvivor() {
    Path p(nodes_, edges_);
    const size_t h = p.Hash();
    out_->emplace_back(std::move(p), h);
    ++paths_reconstructed;
  }

  const PropertyGraph& g_;
  const Nfa& nfa_;
  const ProductIndex& index_;
  const PathSemantics semantics_;
  const EvalLimits& limits_;

  std::vector<std::pair<Path, size_t>>* out_ = nullptr;
  bool* dropped_ = nullptr;
  std::vector<NodeId> nodes_;
  std::vector<EdgeId> edges_;
  uint32_t cancel_countdown_ = kCancelCheckStride;
  bool stopped_ = false;
};

/// Non-shortest engine: semi-naive rounds where round r extends every
/// r-segment result by one product-walked segment. Structure (segment
/// batching, chunk-order merge, budget checks on the calling thread)
/// mirrors RecursiveSemiNaive so the two engines share every budget
/// trip point. Accumulates into `*out`: the answer when OK is returned
/// (a truncate=true trip returns OK with the partial answer).
Status FrontierDfs(const PropertyGraph& g, const Nfa& nfa,
                   const ProductIndex& index, PathSemantics semantics,
                   const EvalLimits& limits, const ParallelOptions& parallel,
                   ParallelStats* parallel_stats,
                   FrontierClosureStats* stats, PathSet* out) {
  PathSet& acc = *out;
  // The frontier holds indices into acc's append-only storage instead of
  // Path copies: merge inserts each accepted path once and records where
  // it landed. acc is only mutated on this thread between expansions, so
  // workers reading acc.paths()[i] never race a rehash or reallocation.
  std::vector<size_t> frontier;
  bool dropped = false;

  const size_t min_chunk = std::max<size_t>(parallel.min_chunk, 1);
  const size_t segment = std::max<size_t>(
      2 * min_chunk, 8 * parallel.EffectiveThreads() * min_chunk);

  // Expands `take(i)` for i in [0, n) in deterministic segments; merges
  // every chunk's candidates in chunk index order on this thread, where
  // the dedup, the max_paths budget and the next-frontier build live.
  // Returns false when the budget tripped with truncate=true (caller
  // returns the partial `acc`).
  auto expand_rounds =
      [&](size_t n, auto take,
          std::vector<size_t>* next) -> Result<bool> {
    for (size_t seg = 0; seg < n; seg += segment) {
      // Per-segment cancellation point, mirroring RecursiveSemiNaive.
      if (CancelRequested(limits.cancel)) {
        return EvalCancelled(*limits.cancel);
      }
      const size_t m = std::min(segment, n - seg);
      const ChunkLayout layout = ThreadPool::PlanFor(m, parallel);
      std::vector<std::vector<std::pair<Path, size_t>>> candidates(
          layout.num_chunks);
      std::vector<uint8_t> chunk_dropped(layout.num_chunks, 0);
      std::vector<std::pair<size_t, size_t>> chunk_counts(layout.num_chunks);
      ThreadPool::Shared().ParallelFor(
          m, parallel, parallel_stats,
          [&](size_t chunk, size_t begin, size_t end) {
            SegmentWalker walker(g, nfa, index, semantics, limits);
            bool mine_dropped = false;
            for (size_t i = begin; i < end; ++i) {
              walker.Extend(take(seg + i), &candidates[chunk], &mine_dropped);
            }
            chunk_dropped[chunk] = mine_dropped ? 1 : 0;
            chunk_counts[chunk] = {walker.states_expanded,
                                   walker.paths_reconstructed};
          });
      // Walkers that saw the token trip stopped mid-walk, so their chunk
      // buffers may be truncated — return before the merge can mistake
      // them for a complete segment.
      if (CancelRequested(limits.cancel)) {
        return EvalCancelled(*limits.cancel);
      }
      for (size_t c = 0; c < layout.num_chunks; ++c) {
        // `dropped` is only consulted at the natural fixpoint, never on
        // a budget return (eval_budget.h precedence), so folding chunk
        // flags before the budget loop cannot change behavior.
        if (chunk_dropped[c] != 0) dropped = true;
        if (stats != nullptr) {
          stats->states_expanded += chunk_counts[c].first;
          stats->paths_reconstructed += chunk_counts[c].second;
        }
        for (auto& [q, h] : candidates[c]) {
          if (acc.size() >= limits.max_paths) {
            // A full accumulator trips on the first NEW candidate;
            // duplicates never trip (eval_budget.h).
            if (acc.ContainsHashed(q, h)) continue;
            if (limits.truncate) return false;
            return BudgetExhausted("max_paths");
          }
          if (acc.InsertHashed(std::move(q), h)) {
            next->push_back(acc.size() - 1);
          }
        }
      }
    }
    return true;
  };

  // Round 0 — the base: every 1-segment path, walked from each node in
  // node order. This is the frontier analog of inserting the filtered
  // base set, so it is budgeted identically.
  {
    PATHALG_ASSIGN_OR_RETURN(
        bool keep_going,
        expand_rounds(g.num_nodes(),
                      [](size_t i) { return Path::SingleNode(NodeId(i)); },
                      &frontier));
    if (!keep_going) return Status::OK();
  }

  size_t iterations = 0;
  while (!frontier.empty()) {
    if (++iterations > limits.max_iterations) {
      if (limits.truncate) return Status::OK();
      return BudgetExhausted("max_iterations");
    }
    std::vector<size_t> next;
    PATHALG_ASSIGN_OR_RETURN(
        bool keep_going,
        expand_rounds(
            frontier.size(),
            [&](size_t i) -> const Path& { return acc.paths()[frontier[i]]; },
            &next));
    if (!keep_going) return Status::OK();
    frontier = std::move(next);
  }
  if (dropped && !limits.truncate) {
    return BudgetExhausted("max_path_length");
  }
  return Status::OK();
}

/// Shortest engine: per-source product BFS over NFA(inner+) computing
/// distances on (node, state) pairs, then backward enumeration of every
/// distance-decreasing product path — Path objects exist only for the
/// per-pair-minimal survivors. Sources fan out across chunks; chunk
/// buffers merge in chunk (= node) order.
class ShortestSource {
 public:
  ShortestSource(const PropertyGraph& g, const Nfa& nfa,
                 const ProductIndex& index, const EvalLimits& limits)
      : g_(g), nfa_(nfa), index_(index), limits_(limits),
        num_states_(nfa.num_states()),
        dist_(g.num_nodes() * nfa.num_states(), kInf) {}

  void Run(NodeId source, std::vector<std::pair<Path, size_t>>* out) {
    out_ = out;
    source_ = source;
    std::fill(dist_.begin(), dist_.end(), kInf);

    std::queue<std::pair<NodeId, uint32_t>> queue;
    dist_[Key(source, nfa_.start())] = 0;
    queue.push({source, nfa_.start()});
    while (!queue.empty()) {
      if (Poll()) return;
      auto [node, state] = queue.front();
      queue.pop();
      const size_t d = dist_[Key(node, state)];
      if (d >= limits_.max_path_length) continue;  // silent cap (contract)
      for (const ProductIndex::Arc& arc : index_.forward[state]) {
        for (EdgeId e : g_.OutEdgesWithLabel(node, arc.label)) {
          const NodeId next = g_.Target(e);
          for (uint32_t ns : arc.states) {
            ++states_expanded;
            if (dist_[Key(next, ns)] == kInf) {
              dist_[Key(next, ns)] = d + 1;
              queue.push({next, ns});
            }
          }
        }
      }
    }

    // Per target (node order): best = min dist over accepting states,
    // then every dist-decreasing backward path of exactly that length.
    for (NodeId t = 0; t < g_.num_nodes(); ++t) {
      if (stopped_) return;
      size_t best = kInf;
      for (uint32_t s = 0; s < num_states_; ++s) {
        if (nfa_.IsAccepting(s)) best = std::min(best, dist_[Key(t, s)]);
      }
      if (best == kInf) continue;
      if (best == 0) {
        // Reachable only if ε ∈ L(inner+); eligibility excludes that,
        // but stay correct under future relaxations.
        EmitSurvivor(Path::SingleNode(t));
        continue;
      }
      for (uint32_t s = 0; s < num_states_; ++s) {
        if (!nfa_.IsAccepting(s) || dist_[Key(t, s)] != best) continue;
        nodes_suffix_ = {t};
        edges_suffix_.clear();
        Backtrack(t, s, best);
      }
    }
  }

  /// True once the evaluation's CancelToken tripped; the caller skips
  /// the remaining sources of its chunk.
  bool stopped() const { return stopped_; }

  size_t states_expanded = 0;
  size_t paths_reconstructed = 0;

 private:
  static constexpr size_t kInf = std::numeric_limits<size_t>::max();

  size_t Key(NodeId n, uint32_t s) const { return n * num_states_ + s; }

  /// Stride poll shared by the BFS and the backtrack enumeration (same
  /// rationale as SegmentWalker::Step). Returns the sticky stop flag.
  bool Poll() {
    if (!stopped_ && limits_.cancel != nullptr && --cancel_countdown_ == 0) {
      cancel_countdown_ = kCancelCheckStride;
      if (limits_.cancel->Cancelled()) stopped_ = true;
    }
    return stopped_;
  }

  void Backtrack(NodeId node, uint32_t state, size_t d) {
    if (Poll()) return;
    if (d == 0) {
      if (node == source_ && state == nfa_.start()) {
        std::vector<NodeId> nodes(nodes_suffix_.rbegin(),
                                  nodes_suffix_.rend());
        std::vector<EdgeId> edges(edges_suffix_.rbegin(),
                                  edges_suffix_.rend());
        EmitSurvivor(Path(std::move(nodes), std::move(edges)));
      }
      return;
    }
    for (const ProductIndex::Arc& arc : index_.backward[state]) {
      for (EdgeId e : g_.InEdgesWithLabel(node, arc.label)) {
        const NodeId prev = g_.Source(e);
        for (uint32_t ps : arc.states) {
          if (dist_[Key(prev, ps)] != d - 1) continue;
          ++states_expanded;
          nodes_suffix_.push_back(prev);
          edges_suffix_.push_back(e);
          Backtrack(prev, ps, d - 1);
          nodes_suffix_.pop_back();
          edges_suffix_.pop_back();
        }
      }
    }
  }

  void EmitSurvivor(Path p) {
    const size_t h = p.Hash();
    out_->emplace_back(std::move(p), h);
    ++paths_reconstructed;
  }

  const PropertyGraph& g_;
  const Nfa& nfa_;
  const ProductIndex& index_;
  const EvalLimits& limits_;
  const size_t num_states_;
  std::vector<size_t> dist_;

  std::vector<std::pair<Path, size_t>>* out_ = nullptr;
  NodeId source_ = 0;
  // Backtrack working state (stored target-to-source, reversed on emit).
  std::vector<NodeId> nodes_suffix_;
  std::vector<EdgeId> edges_suffix_;
  uint32_t cancel_countdown_ = kCancelCheckStride;
  bool stopped_ = false;
};

Status FrontierShortest(const PropertyGraph& g, const RegexPtr& inner,
                        const EvalLimits& limits,
                        const ParallelOptions& parallel,
                        ParallelStats* parallel_stats,
                        FrontierClosureStats* stats, PathSet* result) {
  const Nfa nfa = Nfa::FromRegex(RegexNode::Plus(inner));
  const ProductIndex index(g, nfa);

  const size_t n = g.num_nodes();
  const ChunkLayout layout = ThreadPool::PlanFor(n, parallel);
  std::vector<std::vector<std::pair<Path, size_t>>> results(layout.num_chunks);
  std::vector<std::pair<size_t, size_t>> chunk_counts(layout.num_chunks);
  ThreadPool::Shared().ParallelFor(
      n, parallel, parallel_stats, [&](size_t chunk, size_t begin, size_t end) {
        ShortestSource bfs(g, nfa, index, limits);
        for (size_t src = begin; src < end; ++src) {
          if (bfs.stopped()) break;
          bfs.Run(static_cast<NodeId>(src), &results[chunk]);
        }
        chunk_counts[chunk] = {bfs.states_expanded, bfs.paths_reconstructed};
      });
  // Cancellation discards every chunk's (possibly truncated) output.
  if (CancelRequested(limits.cancel)) return EvalCancelled(*limits.cancel);

  PathSet& out = *result;
  for (size_t c = 0; c < layout.num_chunks; ++c) {
    if (stats != nullptr) {
      stats->states_expanded += chunk_counts[c].first;
      stats->paths_reconstructed += chunk_counts[c].second;
    }
    for (auto& [q, h] : results[c]) {
      if (out.ContainsHashed(q, h)) continue;  // duplicates never trip
      if (out.size() >= limits.max_paths) {
        if (limits.truncate) return Status::OK();
        return BudgetExhausted("max_paths");
      }
      out.InsertHashed(std::move(q), h);
    }
  }
  return Status::OK();
}

}  // namespace

Result<PathSet> FrontierClosure(const PropertyGraph& g, const RegexPtr& inner,
                                PathSemantics semantics,
                                const EvalLimits& limits,
                                const ParallelOptions& parallel,
                                ParallelStats* parallel_stats,
                                FrontierClosureStats* stats) {
  if (!FrontierEligible(inner)) {
    return Status::InvalidArgument(
        "frontier closure requires a closure-free inner regex");
  }
  PathSet acc;
  Status st;
  if (semantics == PathSemantics::kShortest) {
    st = FrontierShortest(g, inner, limits, parallel, parallel_stats, stats,
                          &acc);
  } else {
    const Nfa nfa = Nfa::FromRegex(inner);
    const ProductIndex index(g, nfa);
    st = FrontierDfs(g, nfa, index, semantics, limits, parallel,
                     parallel_stats, stats, &acc);
  }
  // Read before a refusal discards the accumulator: it is the only
  // record of how much a refused or cancelled ϕ held.
  if (stats != nullptr) stats->accumulated_paths = acc.size();
  PATHALG_RETURN_NOT_OK(st);
  return acc;
}

}  // namespace pathalg

#include "algebra/recursive.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "algebra/eval_budget.h"
#include "common/hash.h"
#include "path/path_index.h"

namespace pathalg {

const char* PathSemanticsToString(PathSemantics s) {
  switch (s) {
    case PathSemantics::kWalk:
      return "WALK";
    case PathSemantics::kTrail:
      return "TRAIL";
    case PathSemantics::kAcyclic:
      return "ACYCLIC";
    case PathSemantics::kSimple:
      return "SIMPLE";
    case PathSemantics::kShortest:
      return "SHORTEST";
  }
  return "?";
}

bool SatisfiesSemantics(const Path& p, PathSemantics s) {
  switch (s) {
    case PathSemantics::kWalk:
    case PathSemantics::kShortest:
      return true;
    case PathSemantics::kTrail:
      return p.IsTrail();
    case PathSemantics::kAcyclic:
      return p.IsAcyclic();
    case PathSemantics::kSimple:
      return p.IsSimple();
  }
  return false;
}

namespace {

struct PairHash {
  size_t operator()(const std::pair<NodeId, NodeId>& p) const {
    size_t h = std::hash<uint64_t>{}(p.first);
    HashCombine(h, std::hash<uint64_t>{}(p.second));
    return h;
  }
};

using BestMap =
    std::unordered_map<std::pair<NodeId, NodeId>, size_t, PairHash>;

// ---------------------------------------------------------------------------
// Naive engine: Definition 4.1 verbatim.
//   ϕ0(S) = S;  ϕi(S) = (ϕ{i-1}(S) ⋈ ϕ0(S)) ∪ ϕ{i-1}(S)  until fixpoint.
// The restrictor filter is applied to every candidate (§4: "filtering the
// paths generated during the recursion").
// ---------------------------------------------------------------------------
Status RecursiveNaive(const PathSet& base, PathSemantics semantics,
                      const EvalLimits& limits, PathSet* out) {
  const bool shortest = semantics == PathSemantics::kShortest;
  BestMap best;
  bool dropped = false;

  PathSet& acc = *out;  // ϕ_{i}(S), accumulated.
  for (const Path& p : base) {
    if (p.empty()) continue;
    // Semantics before length: only *admissible* overlong candidates set
    // `dropped` (the eval_budget.h predicate).
    if (!SatisfiesSemantics(p, semantics)) continue;
    if (p.Len() > limits.max_path_length) {
      dropped = true;
      continue;
    }
    if (acc.Contains(p)) continue;  // duplicates never trip the budget
    if (acc.size() >= limits.max_paths) {
      if (limits.truncate) return Status::OK();
      return BudgetExhausted("max_paths");
    }
    if (shortest) {
      auto key = std::make_pair(p.First(), p.Last());
      auto it = best.find(key);
      if (it == best.end() || p.Len() < it->second) best[key] = p.Len();
    }
    acc.Insert(p);
  }

  // ϕ0 is the *filtered* base — Definition 4.1 instantiated per semantics.
  // Copy it out: `acc` grows during the fixpoint and would invalidate
  // pointers into its storage.
  std::vector<Path> base_paths(acc.begin(), acc.end());
  PathFirstIndex index(base_paths);

  // The budget trips iff the fixpoint is not *verified* within
  // max_iterations rounds — a nonempty ϕ0 needs round 1 to verify even an
  // immediate fixpoint, while ϕ0 = ∅ is a fixpoint with zero rounds. This
  // matches the semi-naive engine's nonempty-frontier loop exactly
  // (eval_budget.h).
  bool grew = !acc.empty();
  size_t rounds = 0;
  while (grew) {
    if (CancelRequested(limits.cancel)) return EvalCancelled(*limits.cancel);
    if (rounds == limits.max_iterations) {
      if (limits.truncate) {
        if (shortest) acc = KeepShortestPerEndpointPair(acc);
        return Status::OK();
      }
      return BudgetExhausted("max_iterations");
    }
    ++rounds;
    // Join the full accumulated set with ϕ0 (this is what makes the naive
    // engine quadratic: older paths are re-joined every round).
    std::vector<Path> generated;
    uint32_t cancel_countdown = kCancelCheckStride;
    for (const Path& p1 : acc) {
      // A single quadratic round can dwarf the round boundary poll above;
      // the stride poll bounds cancellation latency inside it.
      if (limits.cancel != nullptr && --cancel_countdown == 0) {
        cancel_countdown = kCancelCheckStride;
        if (limits.cancel->Cancelled()) return EvalCancelled(*limits.cancel);
      }
      for (const Path* p2 : index.ForFirst(p1.Last())) {
        Path q = Path::ConcatUnchecked(p1, *p2);
        if (!SatisfiesSemantics(q, semantics)) continue;
        if (q.Len() > limits.max_path_length) {
          dropped = true;
          continue;
        }
        if (shortest) {
          auto key = std::make_pair(q.First(), q.Last());
          auto bit = best.find(key);
          if (bit != best.end() && q.Len() > bit->second) continue;
          if (bit == best.end() || q.Len() < bit->second) {
            best[key] = q.Len();
          }
        }
        generated.push_back(std::move(q));
      }
    }
    const size_t before = acc.size();
    for (Path& q : generated) {
      if (acc.Contains(q)) continue;  // duplicates never trip the budget
      if (acc.size() >= limits.max_paths) {
        if (limits.truncate) return Status::OK();
        return BudgetExhausted("max_paths");
      }
      acc.Insert(std::move(q));
    }
    grew = acc.size() > before;
  }
  // Fixpoint verified: |ϕi| == |ϕ{i-1}|.
  if (dropped && !limits.truncate) {
    return BudgetExhausted("max_path_length");
  }
  if (shortest) acc = KeepShortestPerEndpointPair(acc);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Optimized engine, non-shortest: semi-naive frontier expansion. Each round
// extends only the paths discovered in the previous round, which generates
// every composition exactly once.
//
// Under parallel execution only the round's candidate generation (extend +
// length filter + restrictor filter — a pure function of the frontier and
// the base index) fans out, chunked over the frontier. Dedup against `acc`,
// the max_paths budget and the next-frontier build stay on the calling
// thread, merging chunks in index order — the serial enumeration order —
// so results, partial answers and Status are byte-identical at any thread
// count.
// ---------------------------------------------------------------------------
Status RecursiveSemiNaive(const PathSet& base, PathSemantics semantics,
                          const EvalLimits& limits,
                          const ParallelOptions& parallel,
                          ParallelStats* parallel_stats, PathSet* out) {
  PathSet& acc = *out;
  std::vector<Path> frontier;
  bool dropped = false;
  for (const Path& p : base) {
    if (p.empty()) continue;
    // Semantics before length: only *admissible* overlong candidates set
    // `dropped` (the eval_budget.h predicate).
    if (!SatisfiesSemantics(p, semantics)) continue;
    if (p.Len() > limits.max_path_length) {
      dropped = true;
      continue;
    }
    if (acc.Contains(p)) continue;  // duplicates never trip the budget
    if (acc.size() >= limits.max_paths) {
      if (limits.truncate) return Status::OK();
      return BudgetExhausted("max_paths");
    }
    acc.Insert(p);
    frontier.push_back(p);
  }
  std::vector<Path> base_paths(acc.begin(), acc.end());
  // CSR-style dense index of ϕ0 by First(p): the frontier loop probes it
  // once per frontier path, so an array index beats a hash lookup.
  PathFirstIndex index(base_paths);

  size_t iterations = 0;
  while (!frontier.empty()) {
    if (++iterations > limits.max_iterations) {
      if (limits.truncate) return Status::OK();
      return BudgetExhausted("max_iterations");
    }
    // Generate-and-merge in deterministic frontier *segments* rather than
    // one frontier-sized batch: serial generation stops within one
    // candidate of the max_paths budget, and materializing a whole
    // round's candidates up front would forfeit that memory bound (a
    // round can be |frontier| × bucket-size candidates). A segment fills
    // exactly one over-decomposed wave of pool chunks; the merge between
    // segments hits the budget at the same candidate the serial loop
    // would, so output and Status are unchanged — later segments are
    // simply never generated.
    const size_t min_chunk = std::max<size_t>(parallel.min_chunk, 1);
    const size_t segment = std::max<size_t>(
        2 * min_chunk, 8 * parallel.EffectiveThreads() * min_chunk);
    std::vector<Path> next;
    for (size_t seg = 0; seg < frontier.size(); seg += segment) {
      // The per-segment poll is the semi-naive engine's cancellation
      // point: segments bound both the latency and the wasted work of a
      // trip, and polling on the merge thread keeps chunk bodies pure.
      if (CancelRequested(limits.cancel)) {
        return EvalCancelled(*limits.cancel);
      }
      const size_t n = std::min(segment, frontier.size() - seg);
      const ChunkLayout layout = ThreadPool::PlanFor(n, parallel);
      // Candidates travel with their precomputed hash: the chunk bodies
      // pay the hashing cost in parallel, so the serial merge below is a
      // probe + push per candidate (PathSet::InsertHashed).
      std::vector<std::vector<std::pair<Path, size_t>>> candidates(
          layout.num_chunks);
      std::vector<uint8_t> chunk_dropped(layout.num_chunks, 0);
      ThreadPool::Shared().ParallelFor(
          n, parallel, parallel_stats,
          [&](size_t chunk, size_t begin, size_t end) {
            std::vector<std::pair<Path, size_t>>& mine = candidates[chunk];
            for (size_t i = begin; i < end; ++i) {
              const Path& p1 = frontier[seg + i];
              // A closed simple path repeats its endpoint on any
              // extension.
              if (semantics == PathSemantics::kSimple && p1.Len() > 0 &&
                  p1.First() == p1.Last()) {
                continue;
              }
              for (const Path* p2 : index.ForFirst(p1.Last())) {
                Path q = Path::ConcatUnchecked(p1, *p2);
                // Semantics before length: only *admissible* overlong
                // candidates set `dropped` (the eval_budget.h predicate).
                if (!SatisfiesSemantics(q, semantics)) continue;
                if (q.Len() > limits.max_path_length) {
                  chunk_dropped[chunk] = 1;
                  continue;
                }
                const size_t h = q.Hash();
                mine.emplace_back(std::move(q), h);
              }
            }
          });
      for (size_t c = 0; c < layout.num_chunks; ++c) {
        // `dropped` is only consulted at the natural fixpoint, never on a
        // budget return, so folding chunk flags before the budget loop
        // cannot change behavior.
        if (chunk_dropped[c] != 0) dropped = true;
        for (auto& [q, h] : candidates[c]) {
          if (acc.ContainsHashed(q, h)) continue;  // duplicates never trip
          if (acc.size() >= limits.max_paths) {
            if (limits.truncate) return Status::OK();
            return BudgetExhausted("max_paths");
          }
          next.push_back(q);
          acc.InsertHashed(std::move(q), h);
        }
      }
    }
    frontier = std::move(next);
  }
  if (dropped && !limits.truncate) {
    return BudgetExhausted("max_path_length");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Optimized engine, shortest: best-first expansion in global length order.
// Only per-pair-optimal paths are expanded; this is sound because a prefix
// of a shortest composition can always be replaced by a shortest
// composition between the same endpoints.
//
// The heap is drained in *length layers*: expanding a path only ever
// pushes strictly longer paths, so once the first length-L path pops, the
// set of length-L entries is frozen. The pop phase of a layer (best-map
// updates, dedup, budgets, result insertion) is sequential and ordered by
// the heap's (length, canonical) comparator; the expansion phase then
// extends the whole accepted layer against a frozen best map — a pure
// read-only fan-out, chunked over the layer. Candidate pushes merge in
// chunk order, and since distinct paths pop in strict comparator order
// regardless of push order, results, partial answers and Status are
// byte-identical at any thread count. (Versus the pre-layered
// interleaved loop, the frozen best map prunes slightly more duplicate
// pushes — same answers, fewer wasted pops.)
// ---------------------------------------------------------------------------
Status RecursiveShortestLayered(const PathSet& base, const EvalLimits& limits,
                                const ParallelOptions& parallel,
                                ParallelStats* parallel_stats,
                                PathSet* result) {
  auto cmp = [](const Path& a, const Path& b) {
    // Min-heap by (length, canonical order) for determinism.
    if (a.Len() != b.Len()) return a.Len() > b.Len();
    return b < a;
  };
  std::priority_queue<Path, std::vector<Path>, decltype(cmp)> heap(cmp);
  PathFirstIndex index(base);

  for (const Path& p : base) {
    if (p.empty()) continue;
    if (p.Len() > limits.max_path_length) continue;
    heap.push(p);
  }

  BestMap best;
  PathSet& out = *result;
  PathSet expanded;  // dedup of heap pops (a path can be pushed twice)
  size_t pops = 0;
  std::vector<Path> layer;  // this length class's newly-optimal paths
  while (!heap.empty()) {
    if (CancelRequested(limits.cancel)) return EvalCancelled(*limits.cancel);
    const size_t layer_len = heap.top().Len();
    layer.clear();
    while (!heap.empty() && heap.top().Len() == layer_len) {
      if (++pops > limits.max_iterations * 64) {
        if (limits.truncate) return Status::OK();
        return BudgetExhausted("max_iterations");
      }
      Path p = heap.top();
      heap.pop();
      auto key = std::make_pair(p.First(), p.Last());
      auto it = best.find(key);
      if (it != best.end() && p.Len() > it->second) continue;  // not optimal
      if (it == best.end()) best[key] = p.Len();
      if (!expanded.Insert(p)) continue;  // already handled this exact path
      if (out.size() >= limits.max_paths) {
        if (limits.truncate) return Status::OK();
        return BudgetExhausted("max_paths");
      }
      out.Insert(p);
      layer.push_back(std::move(p));
    }
    // Expand every accepted layer path by every base path. `best` is
    // frozen here (all entries keyed this layer hold layer_len, which
    // already prunes any strictly-longer extension), so the chunk bodies
    // only read shared state.
    const size_t n = layer.size();
    const ChunkLayout layout = ThreadPool::PlanFor(n, parallel);
    std::vector<std::vector<Path>> pushes(layout.num_chunks);
    ThreadPool::Shared().ParallelFor(
        n, parallel, parallel_stats,
        [&](size_t chunk, size_t begin, size_t end) {
          std::vector<Path>& mine = pushes[chunk];
          for (size_t i = begin; i < end; ++i) {
            const Path& p = layer[i];
            for (const Path* b : index.ForFirst(p.Last())) {
              if (b->Len() == 0) continue;  // identity ext., no progress
              Path q = Path::ConcatUnchecked(p, *b);
              if (q.Len() > limits.max_path_length) continue;
              auto qkey = std::make_pair(q.First(), q.Last());
              auto qit = best.find(qkey);
              if (qit != best.end() && q.Len() > qit->second) continue;
              mine.push_back(std::move(q));
            }
          }
        });
    for (std::vector<Path>& chunk : pushes) {
      for (Path& q : chunk) heap.push(std::move(q));
    }
  }
  return Status::OK();
}

}  // namespace

Result<PathSet> Recursive(const PathSet& base, PathSemantics semantics,
                          const EvalLimits& limits, PhiEngine engine,
                          const ParallelOptions& parallel,
                          ParallelStats* parallel_stats,
                          size_t* accumulated_paths) {
  PathSet acc;
  Status st;
  if (engine == PhiEngine::kNaive) {
    // The naive engine is the literal Definition 4.1 reference the
    // parallel paths are differentially tested against; it stays serial
    // by design.
    if (parallel_stats != nullptr && parallel.EffectiveThreads() > 1) {
      ++parallel_stats->serial_fallbacks;
    }
    st = RecursiveNaive(base, semantics, limits, &acc);
  } else if (semantics == PathSemantics::kShortest) {
    st = RecursiveShortestLayered(base, limits, parallel, parallel_stats,
                                  &acc);
  } else {
    st = RecursiveSemiNaive(base, semantics, limits, parallel,
                            parallel_stats, &acc);
  }
  // Read before a refusal discards the accumulator: it is the only
  // record of how much a refused or cancelled ϕ held.
  if (accumulated_paths != nullptr) *accumulated_paths = acc.size();
  PATHALG_RETURN_NOT_OK(st);
  return acc;
}

PathSet RestrictPaths(const PathSet& s, PathSemantics semantics) {
  if (semantics == PathSemantics::kShortest) {
    return KeepShortestPerEndpointPair(s);
  }
  PathSet out;
  for (const Path& p : s) {
    if (SatisfiesSemantics(p, semantics)) out.Insert(p);
  }
  return out;
}

PathSet KeepShortestPerEndpointPair(const PathSet& s) {
  BestMap best;
  for (const Path& p : s) {
    auto key = std::make_pair(p.First(), p.Last());
    auto it = best.find(key);
    if (it == best.end() || p.Len() < it->second) best[key] = p.Len();
  }
  PathSet out;
  for (const Path& p : s) {
    if (best[std::make_pair(p.First(), p.Last())] == p.Len()) out.Insert(p);
  }
  return out;
}

}  // namespace pathalg

#ifndef PATHALG_MUTATION_LIVE_GRAPH_H_
#define PATHALG_MUTATION_LIVE_GRAPH_H_

/// \file live_graph.h
/// One mutable graph identity: an immutable base version + the delta
/// accumulated on top of it, publishing immutable `PropertyGraph`
/// versions to readers. The server's GraphCatalog holds one LiveGraph
/// per mutable catalog entry; sessions call `Current()` before each
/// query and keep whatever version they got pinned by shared_ptr for the
/// query's duration — MVCC falls out of the catalog's existing sharing
/// model, no reader locks anywhere on the query path.
///
/// Acknowledged ⇒ journaled; published on first read, at most once per
/// delta generation.
///
/// Write path (`Mutate`): validate + apply to the DeltaState, append the
/// resolved record to the fsync'd journal (durability point — a mutation
/// is acknowledged only once it would survive a crash), invalidate the
/// cached current version. The acknowledgement's node/edge counts come
/// from the delta itself, so a write never builds a version: the first
/// reader after it (`Current()` / `VersionId()`) does, and a burst of k
/// writes costs one materialization, not k. Writers are serialized per
/// graph by the annotated mutex; queries take it only briefly in
/// `Current()` (then hold a shared_ptr).
/// A failed journal append rolls the record back out of the DeltaState
/// (published versions never show a mutation the client saw ERR for) and
/// poisons the write path: the file tail and fd are suspect after a
/// failed append, so further Mutate/Compact calls are refused — the
/// graph stays readable, and a restart recovers the durable prefix. The
/// same poisoning applies if compaction loses the journal mid-swap;
/// acknowledged-implies-durable holds at every instant either way.
///
/// Versions: `Current()` materializes (base + delta) via
/// `DeltaOverlayGraph::Apply` at most once per delta generation;
/// `VersionId()` is the content-addressed snapshot checksum
/// (SnapshotWriter::VersionId) of that version, reported by `!version`.
///
/// Compaction folds the whole delta into the next on-disk base snapshot
/// and resets the journal, keeping recovery O(tail) instead of O(all
/// mutations ever). It runs synchronously via `Compact()` (tests, and
/// the write path when `compact_threshold` is crossed with no pool) or
/// detached on the shared ThreadPool. Either way it is phased so queries
/// (which take mu_ briefly in Current()) and writers are never blocked
/// behind the fold: the delta is pinned under the mutex, the serialize +
/// fsync'd writes run unlocked against the immutable materialized
/// version, and the mutex is re-taken only for the cheap renames — the
/// swap is abandoned and refolded if a writer advanced the delta
/// meanwhile (delta generation check). Crash-safe publication order:
///
///   1. write journal.next  — tail records, bound to the *new* version,
///      fsync'd (the base image lands durably at base.snap.tmp too,
///      unpublished until step 2)
///   2. rename base.snap    — the new base becomes durable (fsync'd
///      rename via RenameDurably)
///   3. rename journal.next → journal
///
/// Recovery (`Open`) inverts it: a journal whose base_version matches
/// the on-disk base replays directly; on mismatch, journal.next is
/// promoted if *it* matches (crash between 2 and 3); otherwise the
/// journal is quarantined aside as `<journal>.stale` — never silently
/// deleted — and counted. Every acknowledged mutation is therefore in
/// the durable base or in whichever journal matches it, at every instant.

#include <cstdint>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/property_graph.h"
#include "mutation/delta_log.h"

namespace pathalg {
namespace mutation {

struct LiveGraphOptions {
  /// On-disk journal path; empty = in-memory only (no durability, no
  /// recovery — bench/test mode).
  std::string journal_path;
  /// Where compaction writes the next base snapshot. Empty disables
  /// compaction (the delta only grows until process exit).
  std::string base_snapshot_path;
  /// Pending mutations that trigger a compaction after a Mutate; 0 =
  /// only explicit Compact() calls.
  size_t compact_threshold = 0;
  /// Run threshold-triggered compactions detached on the shared
  /// ThreadPool instead of inline on the mutating session's thread.
  bool background_compaction = false;
};

struct LiveGraphCounters {
  uint64_t mutations_applied = 0;
  uint64_t mutations_rejected = 0;
  /// Records applied since the last compaction (journal tail length).
  uint64_t pending = 0;
  uint64_t compactions = 0;
  /// Versions materialized by Current() (cache misses of the overlay).
  uint64_t materializations = 0;
  /// Journal records replayed by Open() recovery.
  uint64_t recovered_records = 0;
  /// Journals quarantined aside because they were bound to a different
  /// base version than the one on disk.
  uint64_t stale_journals = 0;
};

/// What an acknowledged Mutate reports (the `!mutate` OK line).
struct MutateAck {
  /// The record with auto names filled in.
  DeltaRecord resolved;
  /// Live node/edge counts of the version the write produces, read from
  /// the delta under the write lock (equal to that version's
  /// num_nodes()/num_edges() once it is materialized).
  size_t nodes = 0;
  size_t edges = 0;
};

class LiveGraph : public std::enable_shared_from_this<LiveGraph> {
 public:
  /// Opens a live graph over `base`, running crash recovery against
  /// `options.journal_path` (replay / promote / quarantine as described
  /// above). `base` must be the graph loaded from
  /// `options.base_snapshot_path` when that file exists, else the
  /// deterministic from-spec build; `base_version_hint` short-circuits
  /// the O(serialize) version-id computation when the caller probed the
  /// snapshot header (0 = compute).
  static Result<std::shared_ptr<LiveGraph>> Open(
      std::shared_ptr<const PropertyGraph> base, LiveGraphOptions options,
      uint64_t base_version_hint = 0);

  /// Validates and applies one mutation, journalling the resolved record
  /// before acknowledging. `ack`, when non-null, receives what the
  /// `!mutate` OK line reports. Publishes nothing: the new version is
  /// materialized by the next Current()/VersionId() (or a compaction).
  /// May trigger compaction per LiveGraphOptions. Fails without applying
  /// once the journal is poisoned (failed append or lost swap — see file
  /// header); the graph is then read-only until reopened.
  Status Mutate(const DeltaRecord& rec, MutateAck* ack = nullptr);

  /// The current published version. Readers hold the shared_ptr for as
  /// long as they need a stable view; later mutations never touch
  /// already-returned versions.
  std::shared_ptr<const PropertyGraph> Current();

  /// Content-addressed id of Current() (the `!version` surface).
  uint64_t VersionId();

  /// Folds the delta into the next base snapshot + journal reset
  /// (no-op when the delta is empty or base_snapshot_path is unset).
  Status Compact();

  /// True while a detached compaction is queued/running (test sync).
  bool compaction_in_flight() const;

  LiveGraphCounters counters() const;

 private:
  LiveGraph(std::shared_ptr<const PropertyGraph> base,
            LiveGraphOptions options, uint64_t base_version);

  std::shared_ptr<const PropertyGraph> EnsureCurrentLocked()
      PA_REQUIRES(mu_);
  /// The phased fold described in the file header. Takes mu_ itself (in
  /// two short critical sections); must be called unlocked.
  Status CompactImpl() PA_EXCLUDES(mu_);
  /// Returns true when the caller should run CompactImpl inline after
  /// releasing mu_ (threshold crossed, no background pool); schedules
  /// the detached variant itself otherwise.
  bool MaybeScheduleCompactionLocked() PA_REQUIRES(mu_);
  /// Rebuilds state_ without its most recent record (deterministic
  /// replay of the surviving prefix) after a failed journal append.
  void RollbackLastRecordLocked() PA_REQUIRES(mu_);

  const LiveGraphOptions options_;

  mutable Mutex mu_;
  std::shared_ptr<const PropertyGraph> base_ PA_GUARDED_BY(mu_);
  uint64_t base_version_ PA_GUARDED_BY(mu_);
  std::unique_ptr<DeltaState> state_ PA_GUARDED_BY(mu_);
  std::unique_ptr<DeltaJournal> journal_ PA_GUARDED_BY(mu_);
  /// Cache of the materialized current version; null = dirty. When the
  /// delta is empty this aliases base_.
  std::shared_ptr<const PropertyGraph> current_ PA_GUARDED_BY(mu_);
  /// Version id of current_; 0 = not yet computed for this version.
  uint64_t version_id_ PA_GUARDED_BY(mu_) = 0;
  /// Bumped on every applied mutation; compaction pins it under the
  /// mutex before folding unlocked and abandons the swap on mismatch.
  uint64_t delta_generation_ PA_GUARDED_BY(mu_) = 0;
  /// True after a failed journal append or a failed journal swap: disk
  /// can no longer track acknowledgements, so writes are refused (the
  /// graph stays readable; reopening recovers the durable prefix).
  bool journal_failed_ PA_GUARDED_BY(mu_) = false;
  bool compaction_in_flight_ PA_GUARDED_BY(mu_) = false;
  LiveGraphCounters counters_ PA_GUARDED_BY(mu_);
};

}  // namespace mutation
}  // namespace pathalg

#endif  // PATHALG_MUTATION_LIVE_GRAPH_H_

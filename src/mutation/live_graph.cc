#include "mutation/live_graph.h"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "mutation/overlay.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_writer.h"

namespace pathalg {
namespace mutation {

namespace {

uint64_t VersionIdOfImage(const std::string& image) {
  storage::SnapshotHeader h;
  std::memcpy(&h, image.data(), sizeof(h));
  return h.table_checksum;
}

Status JournalFailedError() {
  return Status::Internal(
      "journal unavailable after a failed append or swap; the live graph "
      "is read-only (reopen to recover the durable state)");
}

}  // namespace

LiveGraph::LiveGraph(std::shared_ptr<const PropertyGraph> base,
                     LiveGraphOptions options, uint64_t base_version)
    : options_(std::move(options)),
      base_(std::move(base)),
      base_version_(base_version),
      state_(std::make_unique<DeltaState>(base_)) {}

Result<std::shared_ptr<LiveGraph>> LiveGraph::Open(
    std::shared_ptr<const PropertyGraph> base, LiveGraphOptions options,
    uint64_t base_version_hint) {
  uint64_t base_version = base_version_hint != 0
                              ? base_version_hint
                              : storage::SnapshotWriter::VersionId(*base);
  std::shared_ptr<LiveGraph> lg(
      new LiveGraph(std::move(base), std::move(options), base_version));
  const std::string& jpath = lg->options_.journal_path;
  if (jpath.empty()) return lg;

  MutexLock lock(lg->mu_);
  const std::string next_path = jpath + ".next";
  Result<DeltaJournal::Contents> journal = DeltaJournal::ReadAll(jpath);
  bool replay_ready = journal.ok() && journal->base_version == base_version;
  if (!replay_ready) {
    // The journal is absent or bound to another version. A compaction
    // that crashed between publishing the new base and swapping journals
    // left the matching journal at `<journal>.next` — promote it. Any
    // non-matching journal is quarantined aside, never deleted.
    Result<DeltaJournal::Contents> next = DeltaJournal::ReadAll(next_path);
    bool promote = next.ok() && next->base_version == base_version;
    if (journal.ok() || journal.status().IsInvalidArgument()) {
      std::rename(jpath.c_str(), (jpath + ".stale").c_str());
      ++lg->counters_.stale_journals;
    }
    if (promote) {
      if (std::rename(next_path.c_str(), jpath.c_str()) != 0) {
        return Status::InvalidArgument("cannot promote journal '" +
                                       next_path + "'");
      }
      journal = std::move(next);
      replay_ready = true;
    } else {
      std::rename(next_path.c_str(), (next_path + ".stale").c_str());
    }
  } else {
    // Normal open: a leftover .next (crash before the base rename) holds
    // a subset of the journal's records — redundant, drop it.
    std::remove(next_path.c_str());
  }

  if (replay_ready) {
    for (const DeltaRecord& rec : journal->records) {
      DeltaRecord copy = rec;
      Status applied = lg->state_->Apply(&copy);
      if (!applied.ok()) {
        return Status::Internal("journal replay failed on '" +
                                FormatMutation(rec) +
                                "': " + applied.ToString());
      }
      ++lg->counters_.recovered_records;
    }
  }
  PATHALG_ASSIGN_OR_RETURN(lg->journal_,
                           DeltaJournal::OpenForAppend(jpath, base_version));
  return lg;
}

Status LiveGraph::Mutate(const DeltaRecord& rec, MutateAck* ack) {
  bool compact_inline = false;
  {
    MutexLock lock(mu_);
    if (journal_failed_ ||
        (!options_.journal_path.empty() && journal_ == nullptr)) {
      ++counters_.mutations_rejected;
      return JournalFailedError();
    }
    DeltaRecord r = rec;
    Status applied = state_->Apply(&r);
    if (!applied.ok()) {
      ++counters_.mutations_rejected;
      return applied;
    }
    if (journal_ != nullptr) {
      // Durability point. On append failure the fd and file tail are
      // suspect (a torn frame may be on disk), so the write path is
      // poisoned, and the record is rolled back out of memory so no
      // published version ever shows a mutation the client saw ERR for.
      Status logged = journal_->Append(r);
      if (!logged.ok()) {
        journal_failed_ = true;
        RollbackLastRecordLocked();
        ++counters_.mutations_rejected;
        return logged;
      }
    }
    ++counters_.mutations_applied;
    ++delta_generation_;
    current_.reset();
    version_id_ = 0;
    if (ack != nullptr) {
      ack->resolved = std::move(r);
      ack->nodes = state_->live_node_count();
      ack->edges = state_->live_edge_count();
    }
    compact_inline = MaybeScheduleCompactionLocked();
  }
  if (compact_inline) {
    (void)CompactImpl();  // failure leaves the delta pending
    MutexLock lock(mu_);
    compaction_in_flight_ = false;
  }
  return Status::OK();
}

void LiveGraph::RollbackLastRecordLocked() {
  std::vector<DeltaRecord> keep = state_->records();
  if (keep.empty()) return;
  keep.pop_back();
  auto fresh = std::make_unique<DeltaState>(state_->shared_base());
  for (DeltaRecord& r : keep) {
    // Replay of previously-accepted records over the same base is
    // deterministic; a failure here would mean DeltaState broke its own
    // contract, in which case the poisoned-for-writes state above
    // already keeps the phantom out of any future published version.
    if (!fresh->Apply(&r).ok()) return;
  }
  state_ = std::move(fresh);
}

std::shared_ptr<const PropertyGraph> LiveGraph::Current() {
  MutexLock lock(mu_);
  return EnsureCurrentLocked();
}

std::shared_ptr<const PropertyGraph> LiveGraph::EnsureCurrentLocked() {
  if (current_ != nullptr) return current_;
  if (state_->empty()) {
    current_ = base_;
    version_id_ = base_version_;
  } else {
    current_ = std::make_shared<const PropertyGraph>(
        DeltaOverlayGraph::Apply(*state_));
    ++counters_.materializations;
  }
  return current_;
}

uint64_t LiveGraph::VersionId() {
  MutexLock lock(mu_);
  std::shared_ptr<const PropertyGraph> cur = EnsureCurrentLocked();
  if (version_id_ == 0) {
    version_id_ = storage::SnapshotWriter::VersionId(*cur);
  }
  return version_id_;
}

bool LiveGraph::MaybeScheduleCompactionLocked() {
  if (options_.compact_threshold == 0 ||
      options_.base_snapshot_path.empty() || compaction_in_flight_ ||
      state_->num_records() < options_.compact_threshold) {
    return false;
  }
  compaction_in_flight_ = true;
  if (options_.background_compaction) {
    std::shared_ptr<LiveGraph> self = shared_from_this();
    ThreadPool::Shared().Submit([self] {
      (void)self->CompactImpl();  // failure leaves the delta pending
      MutexLock lock(self->mu_);
      self->compaction_in_flight_ = false;
    });
    return false;
  }
  return true;  // caller folds inline once it has released mu_
}

Status LiveGraph::Compact() { return CompactImpl(); }

Status LiveGraph::CompactImpl() {
  // A writer advancing the delta while the fold runs unlocked
  // invalidates the serialized image; refold against the new state a
  // bounded number of times, then give up and leave the delta pending
  // (the next Mutate past the threshold reschedules).
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::shared_ptr<const PropertyGraph> next;
    uint64_t parent_version = 0;
    uint64_t folded_generation = 0;
    {
      MutexLock lock(mu_);
      if (journal_failed_) return JournalFailedError();
      if (state_->empty()) return Status::OK();
      if (options_.base_snapshot_path.empty()) {
        return Status::InvalidArgument(
            "compaction disabled: no base snapshot path configured");
      }
      next = EnsureCurrentLocked();
      parent_version = base_version_;
      folded_generation = delta_generation_;
    }
    // Serialization and the fsync'd writes run unlocked: `next` is
    // immutable, so queries refreshing via Current() and new writers
    // proceed while the image lands on disk. One serialization yields
    // the new version id, the journal binding and the bytes published
    // (parent chained to the version being folded away).
    std::string image =
        storage::SnapshotWriter::Serialize(*next, parent_version);
    uint64_t next_version = VersionIdOfImage(image);
    const std::string tmp = options_.base_snapshot_path + ".tmp";
    // Crash-safe order (see live_graph.h): tail journal for the new
    // version first, then the base image (unpublished at .tmp), then —
    // under the mutex — the renames and the journal swap.
    if (!options_.journal_path.empty()) {
      PATHALG_RETURN_NOT_OK(DeltaJournal::WriteAll(
          options_.journal_path + ".next", next_version, {}));
    }
    PATHALG_RETURN_NOT_OK(WriteFileDurably(tmp, image));

    MutexLock lock(mu_);
    if (journal_failed_) {
      std::remove(tmp.c_str());
      return JournalFailedError();
    }
    if (delta_generation_ != folded_generation ||
        base_version_ != parent_version) {
      // A writer (or a concurrent explicit Compact) advanced the state;
      // the image no longer folds the full delta. Leftover .tmp/.next
      // files are rewritten by the retry and ignored by recovery.
      std::remove(tmp.c_str());
      continue;
    }
    PATHALG_RETURN_NOT_OK(
        RenameDurably(tmp, options_.base_snapshot_path));
    if (!options_.journal_path.empty()) {
      journal_.reset();  // close the old fd before renaming over its file
      Status swapped = RenameDurably(options_.journal_path + ".next",
                                     options_.journal_path);
      if (!swapped.ok()) {
        // journal_ is gone; mutations could only be acknowledged
        // unjournalled from here, so poison the write path (Mutate and
        // further compactions refuse; reads continue).
        journal_failed_ = true;
        return swapped;
      }
      Result<std::unique_ptr<DeltaJournal>> reopened =
          DeltaJournal::OpenForAppend(options_.journal_path, next_version);
      if (!reopened.ok()) {
        journal_failed_ = true;
        return reopened.status();
      }
      journal_ = std::move(reopened).value();
    }

    base_ = next;
    base_version_ = next_version;
    state_ = std::make_unique<DeltaState>(base_);
    current_ = next;
    version_id_ = next_version;
    ++counters_.compactions;
    return Status::OK();
  }
  return Status::ResourceExhausted(
      "compaction kept losing the race against concurrent mutations; "
      "delta left pending");
}

bool LiveGraph::compaction_in_flight() const {
  MutexLock lock(mu_);
  return compaction_in_flight_;
}

LiveGraphCounters LiveGraph::counters() const {
  MutexLock lock(mu_);
  LiveGraphCounters out = counters_;
  out.pending = state_->num_records();
  return out;
}

}  // namespace mutation
}  // namespace pathalg

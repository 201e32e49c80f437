#ifndef EVOREC_VERSION_RECOVERY_H_
#define EVOREC_VERSION_RECOVERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/commit_log.h"
#include "storage/snapshot.h"
#include "version/versioned_kb.h"

namespace evorec::version {

/// Durable startup for a versioned KB: load the latest snapshot,
/// replay the commit-log tail, and come back with the exact
/// fingerprint chain the pre-restart process had — so a warm-started
/// engine (engine::RecommendationService::WarmStart) resumes serving
/// with its cache keys intact. The inverse direction is
/// SaveVersionSnapshot + VersionedKnowledgeBase::AttachCommitLog.
///
/// The checkpoint-directory API makes startup *self-healing*: keep
/// the last K snapshots (SaveCheckpoint), and RecoverFromCheckpoints
/// tries them newest-first, quarantining any that fail to load or
/// disagree with the log (renamed to `<name>.corrupt` for post-mortem)
/// and paying a longer log replay from the next-older one instead. A
/// corrupt *log* record below the readable tail is the one
/// unrecoverable case — no snapshot choice can cross it — and is
/// reported as such rather than blamed on a healthy snapshot.

struct RecoveryOptions {
  /// Stop cleanly before a torn final log record (WAL semantics)
  /// instead of failing recovery.
  bool allow_torn_tail = true;
  /// Check every replayed commit's chained fingerprint against the
  /// one its record stored; a mismatch means the snapshot and log do
  /// not belong to the same history. Cheap — leave it on.
  bool verify_fingerprints = true;
  /// Environment all recovery I/O runs through; nullptr means
  /// Env::Default().
  Env* env = nullptr;
};

/// What recovery did to come back up — surfaced so operators (and the
/// degraded-mode health report) can see which checkpoint served, what
/// was quarantined, and how much log was replayed.
struct RecoveryReport {
  /// Path of the checkpoint the KB was restored from; empty when
  /// recovery replayed the log from an empty base (log-only).
  std::string checkpoint_used;
  /// Checkpoints that failed to load or contradicted the log, renamed
  /// to `<path>.corrupt` and skipped.
  std::vector<std::string> quarantined;
  /// Checkpoints present when recovery started.
  size_t checkpoints_found = 0;
  size_t replayed_commits = 0;
  size_t skipped_records = 0;
  bool log_only = false;

  std::string ToString() const;
};

/// A recovered KB. Version ids restart at 0: the restored version 0
/// is the snapshot's content (original id `base_version`), and the
/// log tail's commits follow as 1, 2, …. Fingerprints — the identity
/// the engine layer keys on — are the original ones.
struct RecoveredKb {
  std::unique_ptr<VersionedKnowledgeBase> vkb;
  /// Original version id of the restored version 0.
  VersionId base_version = 0;
  /// Log records replayed on top of the snapshot.
  size_t replayed_commits = 0;
  /// Log records at or below base_version (already in the snapshot).
  size_t skipped_records = 0;
  /// Filled by RecoverFromCheckpoints; RecoverFromDisk only sets the
  /// replay counters.
  RecoveryReport report;
};

/// Saves version `v` of `vkb` as a binary snapshot at `path`,
/// stamping it with v's id and chained content fingerprint.
Status SaveVersionSnapshot(const VersionedKnowledgeBase& vkb, VersionId v,
                           const std::string& path,
                           const storage::SnapshotOptions& options = {});

/// Loads the snapshot at `snapshot_path` and replays the records of
/// `log_path` (pass "" for snapshot-only recovery) whose version id
/// exceeds the snapshot's. Errors cleanly on mismatched pairs: a
/// version-id gap between snapshot and log tail, a dictionary-tail
/// misalignment, or (with verify_fingerprints) a fingerprint chain
/// divergence.
Result<RecoveredKb> RecoverFromDisk(const std::string& snapshot_path,
                                    const std::string& log_path,
                                    const RecoveryOptions& options = {});

// ---- Checkpoint directories ----

/// `dir`/checkpoint-<v, zero-padded to 10 digits>.snap — the padding
/// makes lexicographic directory order equal version order.
std::string CheckpointPath(const std::string& dir, VersionId v);

/// Snapshots version `v` into `dir` (created if missing) and prunes
/// the directory down to the newest `keep` checkpoints. Quarantined
/// `.corrupt` files are never pruned — they are evidence.
Status SaveCheckpoint(const VersionedKnowledgeBase& vkb, VersionId v,
                      const std::string& dir, size_t keep = 3,
                      const storage::SnapshotOptions& options = {});

/// Full paths of the checkpoints in `dir`, oldest first. A missing
/// directory is an empty list, not an error.
Result<std::vector<std::string>> ListCheckpoints(const std::string& dir,
                                                 Env* env = nullptr);

/// Self-healing recovery (see file comment): newest checkpoint first,
/// quarantine-and-fall-back on snapshot failures, log-only replay
/// from an empty base when no checkpoint is usable. The returned
/// RecoveredKb::report says exactly what happened. Fails only when the
/// log itself is corrupt or every path (including log-only) disagrees.
Result<RecoveredKb> RecoverFromCheckpoints(const std::string& dir,
                                           const std::string& log_path,
                                           const RecoveryOptions& options = {});

}  // namespace evorec::version

#endif  // EVOREC_VERSION_RECOVERY_H_

#ifndef EVOREC_VERSION_VERSIONED_KB_H_
#define EVOREC_VERSION_VERSIONED_KB_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "rdf/knowledge_base.h"
#include "storage/commit_log.h"
#include "version/version.h"
#include "version/version_history.h"

namespace evorec::version {

/// A linear-history versioned knowledge base. All versions share one
/// term dictionary so TermIds are stable across versions — the
/// invariant every evolution measure depends on.
///
/// Every version is one VersionRecord (version/version_history.h): its
/// commit metadata, chained fingerprint, committed change set and a
/// pinned segment-sharing snapshot. A commit copies the head snapshot
/// (a segment-list copy), applies the change set and freezes it, so
/// consecutive versions share every frozen segment they have in common
/// and any version is readable in O(1).
///
/// Thread safety follows the KbView contract: every reader (the KbView
/// members, Info, Snapshot, StorageBytes) takes the history's lock, so
/// any number of readers may run alongside one committer. Commits are
/// serialised by the caller; Commit builds the new version outside the
/// lock and publishes it under the lock. Concurrent readers should use
/// SharedSnapshot: the snapshot Snapshot returns is shared with every
/// other caller, and first-use index builds on it are not
/// synchronised. Interning into dictionary() and attaching a commit log
/// belong to the committer thread.
class VersionedKnowledgeBase final : public VersionHistory {
 public:
  /// Creates a KB whose version 0 is `initial` (empty by default).
  explicit VersionedKnowledgeBase(
      rdf::KnowledgeBase initial = rdf::KnowledgeBase());

  /// Same as above; ArchivePolicy has a single value, which names the
  /// one representation described on the class.
  VersionedKnowledgeBase(ArchivePolicy policy, rdf::KnowledgeBase initial);

  /// Creates a KB whose version 0 is `base` with a caller-supplied
  /// content fingerprint instead of a freshly computed one. This is
  /// the recovery path: a snapshot of version N stores N's *chained*
  /// fingerprint (which recomputation from content alone cannot
  /// reproduce), and seeding the chain with it keeps every handle —
  /// and therefore every engine cache key — identical across a
  /// restart. See version/recovery.h.
  static VersionedKnowledgeBase WithBaseFingerprint(
      rdf::KnowledgeBase base, uint64_t base_fingerprint);

  VersionedKnowledgeBase(const VersionedKnowledgeBase&) = delete;
  VersionedKnowledgeBase& operator=(const VersionedKnowledgeBase&) = delete;
  /// Moves are not synchronised: move a KB only while no other thread
  /// uses it.
  VersionedKnowledgeBase(VersionedKnowledgeBase&&) = default;
  VersionedKnowledgeBase& operator=(VersionedKnowledgeBase&&) = default;

  /// Applies `changes` on top of the head version, creating a new
  /// version. Returns the new version id. Empty change sets are legal
  /// (they record a no-op commit). Pass an rvalue to archive the
  /// triple vectors without copying them.
  Result<VersionId> Commit(ChangeSet changes, std::string author,
                           std::string message,
                           uint64_t timestamp = 0) override;

  /// Attaches an append-only commit log: every subsequent Commit
  /// first appends a storage::DeltaRecord — write-ahead, so a failed
  /// append fails the commit without mutating memory — carrying the
  /// change set (original order, preserving the fingerprint chain),
  /// the commit metadata, the post-commit fingerprint, and the
  /// dictionary tail interned since the previous record. `log` must
  /// outlive the attachment. Attach immediately after saving a
  /// snapshot so the pair stays a consistent recovery unit
  /// (version/recovery.h); whether a commit is durable the moment it
  /// returns is the log's LogOptions::sync_on_append.
  void AttachCommitLog(storage::CommitLog* log);

  /// Stops logging (the log itself stays open).
  void DetachCommitLog();

  storage::CommitLog* commit_log() const { return log_; }

  /// The pinned snapshot of version `v`. The pointer stays valid for
  /// the KB's lifetime; it is shared with every other caller, so
  /// concurrent readers should take SharedSnapshot instead.
  Result<const rdf::KnowledgeBase*> Snapshot(VersionId v) const;

  /// Resident bytes of version storage: every pinned snapshot (counting
  /// only the permutation indexes each store has actually built) and
  /// archived change set, billing each shared frozen segment once.
  size_t StorageBytes() const;

  /// Same accounting with a caller-owned dedup set, so callers holding
  /// several stores that share frozen segments (the shards of a
  /// ShardedKnowledgeBase plus its pinned union snapshots) bill each
  /// immutable run once across the whole ensemble.
  size_t StorageBytes(std::unordered_set<const void*>& seen) const;

  const std::shared_ptr<rdf::Dictionary>& shared_dictionary() const {
    return dictionary_;
  }
  rdf::Dictionary& dictionary() { return *dictionary_; }
  const rdf::Vocabulary& vocabulary() const { return vocabulary_; }

 private:
  /// Version 0 and its fingerprint, computed before the history that
  /// pins it is constructed.
  struct Base {
    rdf::KnowledgeBase kb;
    uint64_t fingerprint = 0;
    std::vector<uint64_t> term_hashes;
  };

  /// Fingerprints `kb` by content: the hash of its canonical
  /// (SPO-ordered) triples, so equal base snapshots fingerprint equally.
  static Base HashBase(rdf::KnowledgeBase kb);

  explicit VersionedKnowledgeBase(Base base);

  std::shared_ptr<rdf::Dictionary> dictionary_;
  rdf::Vocabulary vocabulary_;
  // Committer-only state, outside the lock. Memoized per-term content
  // hashes (0 = not yet computed).
  std::vector<uint64_t> term_hashes_;
  // Durability (both unused until AttachCommitLog): the attached log
  // and the dictionary watermark of the last appended record — terms
  // with ids >= logged_terms_ still need shipping.
  storage::CommitLog* log_ = nullptr;
  rdf::TermId logged_terms_ = 0;
};

}  // namespace evorec::version

#endif  // EVOREC_VERSION_VERSIONED_KB_H_

#ifndef EVOREC_VERSION_VERSION_HISTORY_H_
#define EVOREC_VERSION_VERSION_HISTORY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "rdf/knowledge_base.h"
#include "version/kb_view.h"
#include "version/version.h"

namespace evorec::version {

/// One published version: its commit metadata, its chained content
/// fingerprint (see SnapshotHandle), the change set committed verbatim,
/// and the pinned immutable snapshot. The snapshot is a segment-sharing
/// store: consecutive versions share every frozen segment they have in
/// common, so a version costs its own segments plus a segment list.
struct VersionRecord {
  VersionInfo info;
  uint64_t fingerprint = 0;
  ChangeSet changes;
  std::shared_ptr<const rdf::KnowledgeBase> snapshot;
};

/// The append-only list of VersionRecords behind every KbView
/// implementation, with the read side of the KbView contract defined
/// once: version_count, head, Handle, Info, Changes and SharedSnapshot.
/// An unknown version is NotFound; Changes(0) is FailedPrecondition.
/// Subclasses build each new version and hand it to Publish.
///
/// Thread safety: every lookup takes the history's lock, and Publish
/// appends under it. The committer is the only writer, so it may read
/// latest() without the lock.
class VersionHistory : public KbView {
 public:
  size_t version_count() const override;
  VersionId head() const override;
  Result<SnapshotHandle> Handle(VersionId v) const override;

  /// Commit metadata for `v`.
  Result<VersionInfo> Info(VersionId v) const;

  /// The change set committed as `v`, verbatim (original order,
  /// duplicates and no-op entries included). Version 0 has none.
  Result<ChangeSet> Changes(VersionId v) const override;

  /// A private segment-sharing copy of `v`'s pinned snapshot:
  /// O(#segments), zero triple copies. A TripleStore is
  /// thread-compatible, not thread-safe, so each caller gets its own
  /// lazy secondary indexes rather than racing on the pinned ones.
  Result<std::shared_ptr<const rdf::KnowledgeBase>> SharedSnapshot(
      VersionId v) const override;

 protected:
  /// Starts the history at version 0 = `base` (compacted before it is
  /// pinned, so every pinned snapshot is frozen) with fingerprint
  /// `base_fingerprint`.
  VersionHistory(rdf::KnowledgeBase base, uint64_t base_fingerprint);

  VersionHistory(VersionHistory&&) = default;
  VersionHistory& operator=(VersionHistory&&) = default;

  /// The pinned snapshot of `v` itself, shared with every caller.
  Result<std::shared_ptr<const rdf::KnowledgeBase>> Pinned(
      VersionId v) const;

  /// Committer only: the head record, read without the lock.
  const VersionRecord& latest() const { return records_.back(); }

  /// Appends the next version; `snapshot` must already be compacted.
  /// Returns its id.
  VersionId Publish(ChangeSet changes, std::string author,
                    std::string message, uint64_t timestamp,
                    uint64_t fingerprint,
                    std::shared_ptr<const rdf::KnowledgeBase> snapshot);

  /// Resident bytes of every pinned snapshot and archived change set,
  /// billing each shared frozen segment once across every store probed
  /// with the same `seen`.
  size_t HistoryBytes(std::unordered_set<const void*>& seen) const;

 private:
  // Held by pointer so the history stays movable.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::vector<VersionRecord> records_;
};

}  // namespace evorec::version

#endif  // EVOREC_VERSION_VERSION_HISTORY_H_

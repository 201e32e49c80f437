#ifndef EVOREC_VERSION_KB_VIEW_H_
#define EVOREC_VERSION_KB_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "rdf/knowledge_base.h"
#include "version/version.h"

namespace evorec::version {

/// The engine-facing surface of a versioned knowledge base: everything
/// EvaluationEngine / RecommendationService need to serve and commit —
/// cheap fingerprint handles for cache keys, pinned immutable
/// snapshots, archived change sets, and the head pointer. Implemented
/// by VersionedKnowledgeBase (one linear history) and
/// ShardedKnowledgeBase (N segmented shards).
///
/// Thread-safety contract, shared by every implementation: each member
/// below guards its own state, so any number of concurrent readers may
/// run alongside one committer. Commits are serialised by the caller —
/// one committer at a time. Readers never receive references into
/// mutable state: SharedSnapshot pins an immutable copy, so a pinned
/// version stays readable while later commits land.
class KbView {
 public:
  virtual ~KbView() = default;

  /// Number of versions (head id + 1).
  virtual size_t version_count() const = 0;

  /// Id of the latest version.
  virtual VersionId head() const = 0;

  /// Cheap content-fingerprint handle to version `v` for cache keys.
  virtual Result<SnapshotHandle> Handle(VersionId v) const = 0;

  /// An immutable shared snapshot of version `v`, pinned for the
  /// caller: the returned KB stays valid and readable while later
  /// commits land. On a segmented store this is a segment-list share,
  /// never a triple copy.
  virtual Result<std::shared_ptr<const rdf::KnowledgeBase>> SharedSnapshot(
      VersionId v) const = 0;

  /// The change set that produced `v` from `v-1` (version 0 has none).
  virtual Result<ChangeSet> Changes(VersionId v) const = 0;

  /// Applies `changes` on top of the head, creating a new version.
  /// Returns the new version id.
  virtual Result<VersionId> Commit(ChangeSet changes, std::string author,
                                   std::string message,
                                   uint64_t timestamp = 0) = 0;

 protected:
  // Implementations decide their own copy/move semantics; protected so
  // a KB is never sliced through the interface.
  KbView() = default;
  KbView(const KbView&) = default;
  KbView& operator=(const KbView&) = default;
  KbView(KbView&&) = default;
  KbView& operator=(KbView&&) = default;
};

}  // namespace evorec::version

#endif  // EVOREC_VERSION_KB_VIEW_H_

#include "version/version_history.h"

#include <utility>

namespace evorec::version {

namespace {

Status UnknownVersion(VersionId v) {
  return NotFoundError("unknown version " + std::to_string(v));
}

}  // namespace

VersionHistory::VersionHistory(rdf::KnowledgeBase base,
                               uint64_t base_fingerprint) {
  base.store().Compact();
  VersionRecord record;
  record.info.author = "system";
  record.info.message = "base version";
  record.fingerprint = base_fingerprint;
  record.snapshot = std::make_shared<const rdf::KnowledgeBase>(std::move(base));
  records_.push_back(std::move(record));
}

size_t VersionHistory::version_count() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return records_.size();
}

VersionId VersionHistory::head() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return static_cast<VersionId>(records_.size() - 1);
}

Result<SnapshotHandle> VersionHistory::Handle(VersionId v) const {
  std::lock_guard<std::mutex> lock(*mu_);
  if (v >= records_.size()) return UnknownVersion(v);
  return SnapshotHandle{v, records_[v].fingerprint};
}

Result<VersionInfo> VersionHistory::Info(VersionId v) const {
  std::lock_guard<std::mutex> lock(*mu_);
  if (v >= records_.size()) return UnknownVersion(v);
  return records_[v].info;
}

Result<ChangeSet> VersionHistory::Changes(VersionId v) const {
  std::lock_guard<std::mutex> lock(*mu_);
  if (v >= records_.size()) return UnknownVersion(v);
  if (v == 0) {
    return FailedPreconditionError("version 0 has no change set");
  }
  return records_[v].changes;
}

Result<std::shared_ptr<const rdf::KnowledgeBase>> VersionHistory::Pinned(
    VersionId v) const {
  std::lock_guard<std::mutex> lock(*mu_);
  if (v >= records_.size()) return UnknownVersion(v);
  return records_[v].snapshot;
}

Result<std::shared_ptr<const rdf::KnowledgeBase>>
VersionHistory::SharedSnapshot(VersionId v) const {
  auto pinned = Pinned(v);
  if (!pinned.ok()) return pinned.status();
  return std::make_shared<const rdf::KnowledgeBase>(**pinned);
}

VersionId VersionHistory::Publish(
    ChangeSet changes, std::string author, std::string message,
    uint64_t timestamp, uint64_t fingerprint,
    std::shared_ptr<const rdf::KnowledgeBase> snapshot) {
  VersionRecord record;
  record.info.author = std::move(author);
  record.info.message = std::move(message);
  record.info.timestamp = timestamp;
  record.info.additions = changes.additions.size();
  record.info.removals = changes.removals.size();
  record.fingerprint = fingerprint;
  record.changes = std::move(changes);
  record.snapshot = std::move(snapshot);

  // The only point the committer touches reader-visible state, held
  // just long enough for one vector append.
  std::lock_guard<std::mutex> lock(*mu_);
  const VersionId id = static_cast<VersionId>(records_.size());
  record.info.id = id;
  records_.push_back(std::move(record));
  return id;
}

size_t VersionHistory::HistoryBytes(
    std::unordered_set<const void*>& seen) const {
  std::lock_guard<std::mutex> lock(*mu_);
  size_t bytes = 0;
  for (const VersionRecord& record : records_) {
    bytes += record.snapshot->store().MemoryBytesDedup(seen);
    bytes += record.changes.size() * sizeof(rdf::Triple);
  }
  return bytes;
}

}  // namespace evorec::version

#ifndef EVOREC_VERSION_SHARDED_KB_H_
#define EVOREC_VERSION_SHARDED_KB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "rdf/knowledge_base.h"
#include "version/version.h"
#include "version/version_history.h"
#include "version/versioned_kb.h"

namespace evorec::version {

/// A versioned knowledge base partitioned by subject hash into N
/// independent VersionedKnowledgeBase shards that share one term
/// dictionary. Commits split the change set by shard and land the
/// per-shard pieces independently (in parallel when a ThreadPool is
/// supplied); because subjects partition the triple space, the shards
/// never contend on data.
///
/// Reads are served from pinned *union snapshots*: at commit time the
/// shards' frozen segment lists are concatenated into one
/// TripleStore::FromSegments store — an O(#segments) pointer splice,
/// never a triple copy — and published under a brief mutex. A reader
/// that pins a snapshot keeps reading that exact version while any
/// number of later commits land: readers never block on the writer and
/// the writer never blocks on readers. The k-way segment merge
/// restores global SPO order, so scans over a union snapshot are
/// byte-identical to the same scans over an unsharded store.
///
/// Concurrency contract: the KbView one — all public methods are
/// internally synchronised, with the restriction that commits are
/// serialised by the caller — one committer at a time, any number of
/// concurrent readers. The shared
/// dictionary must only be interned into by the committer thread
/// (intern terms before Commit; readers resolve ids against the
/// dictionary snapshot-free because interning is append-only).
///
/// Not supported: commit logs (attach them to an unsharded KB; the
/// shard split is an in-memory serving arrangement, not a durability
/// format).
class ShardedKnowledgeBase final : public VersionHistory {
 public:
  struct Options {
    /// Number of subject-hash shards (>= 1).
    size_t shards = 4;
    /// Optional pool for committing shards in parallel. Not owned;
    /// must outlive the KB. nullptr commits shards sequentially.
    ThreadPool* pool = nullptr;
  };

  /// Creates a sharded KB whose version 0 is empty, with a fresh
  /// shared dictionary and default options.
  ShardedKnowledgeBase();

  /// Creates a sharded KB whose version 0 is empty, with a fresh
  /// shared dictionary.
  explicit ShardedKnowledgeBase(Options options);

  /// Creates a sharded KB whose version 0 is `initial`, splitting its
  /// triples across shards (the shards adopt `initial`'s dictionary).
  ShardedKnowledgeBase(Options options, rdf::KnowledgeBase initial);

  ShardedKnowledgeBase(const ShardedKnowledgeBase&) = delete;
  ShardedKnowledgeBase& operator=(const ShardedKnowledgeBase&) = delete;

  /// Splits `changes` by subject shard, commits the pieces (in
  /// parallel when a pool is attached), and publishes the union
  /// snapshot. The read side of KbView (version_count, head, Handle,
  /// Info, Changes, SharedSnapshot) comes from VersionHistory and only
  /// takes its brief lock.
  Result<VersionId> Commit(ChangeSet changes, std::string author,
                           std::string message,
                           uint64_t timestamp = 0) override;

  size_t shard_count() const { return shards_.size(); }

  /// The shard a subject hashes to — exposed for tests and benches.
  size_t ShardOf(rdf::TermId subject) const;

  /// Direct access to one shard (tests/benches; do not commit through
  /// it — per-shard histories must only advance via Commit above).
  const VersionedKnowledgeBase& shard(size_t i) const { return shards_[i]; }

  /// Resident bytes across shards, pinned union snapshots and archived
  /// change sets, counting each shared frozen segment once.
  size_t StorageBytes() const;

  const std::shared_ptr<rdf::Dictionary>& shared_dictionary() const {
    return dictionary_;
  }
  rdf::Dictionary& dictionary() { return *dictionary_; }

 private:
  ShardedKnowledgeBase(ThreadPool* pool,
                       std::vector<VersionedKnowledgeBase> shards);

  /// Splits `initial` by subject into `shards` VersionedKnowledgeBases
  /// sharing its dictionary.
  static std::vector<VersionedKnowledgeBase> SplitBase(
      size_t shards, const rdf::KnowledgeBase& initial);

  /// Folds the shards' head fingerprints into one chain-stable union
  /// fingerprint.
  static uint64_t FoldFingerprints(
      const std::vector<VersionedKnowledgeBase>& shards);

  /// Concatenates the shards' head-store segment lists into one union
  /// snapshot (O(total segment count), zero triple copies).
  static rdf::KnowledgeBase UnionSnapshot(
      const std::vector<VersionedKnowledgeBase>& shards);

  // Options::pool: not owned, nullptr commits shards sequentially.
  ThreadPool* pool_ = nullptr;
  std::shared_ptr<rdf::Dictionary> dictionary_;
  // Mutated only by the (externally serialised) committer; shard
  // *reads* never happen concurrently with shard commits because
  // readers go through pinned union snapshots instead.
  std::vector<VersionedKnowledgeBase> shards_;
};

}  // namespace evorec::version

#endif  // EVOREC_VERSION_SHARDED_KB_H_

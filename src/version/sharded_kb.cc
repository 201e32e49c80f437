#include "version/sharded_kb.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "rdf/segment.h"

namespace evorec::version {

namespace {

// splitmix64 finaliser: TermIds are dense (0, 1, 2, ...), so taking
// them mod N directly would stripe related subjects across shards in
// intern order; the mixer decorrelates shard choice from id
// assignment while staying deterministic across runs.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

size_t ShardIndex(rdf::TermId subject, size_t shards) {
  return static_cast<size_t>(Mix64(subject) % shards);
}

}  // namespace

ShardedKnowledgeBase::ShardedKnowledgeBase()
    : ShardedKnowledgeBase(Options()) {}

ShardedKnowledgeBase::ShardedKnowledgeBase(Options options)
    : ShardedKnowledgeBase(options, rdf::KnowledgeBase()) {}

ShardedKnowledgeBase::ShardedKnowledgeBase(Options options,
                                           rdf::KnowledgeBase initial)
    : ShardedKnowledgeBase(
          options.pool,
          SplitBase(std::max<size_t>(1, options.shards), initial)) {}

ShardedKnowledgeBase::ShardedKnowledgeBase(
    ThreadPool* pool, std::vector<VersionedKnowledgeBase> shards)
    : VersionHistory(UnionSnapshot(shards), FoldFingerprints(shards)),
      pool_(pool),
      dictionary_(shards.front().shared_dictionary()),
      shards_(std::move(shards)) {}

std::vector<VersionedKnowledgeBase> ShardedKnowledgeBase::SplitBase(
    size_t shards, const rdf::KnowledgeBase& initial) {
  // The full scan emits in SPO order and the split preserves relative
  // order, so each shard's slice is already sorted-unique — FromSorted
  // adopts it as one frozen segment without re-sorting.
  std::vector<std::vector<rdf::Triple>> split(shards);
  initial.store().ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    split[ShardIndex(t.subject, shards)].push_back(t);
    return true;
  });
  std::vector<VersionedKnowledgeBase> out;
  out.reserve(shards);
  for (std::vector<rdf::Triple>& slice : split) {
    out.emplace_back(rdf::KnowledgeBase(
        initial.shared_dictionary(),
        rdf::TripleStore::FromSorted(std::move(slice))));
  }
  return out;
}

size_t ShardedKnowledgeBase::ShardOf(rdf::TermId subject) const {
  return ShardIndex(subject, shards_.size());
}

Result<VersionId> ShardedKnowledgeBase::Commit(ChangeSet changes,
                                               std::string author,
                                               std::string message,
                                               uint64_t timestamp) {
  // Stable split by subject shard: relative order within each shard's
  // slice matches the input, so per-shard last-wins replay composes to
  // exactly the unsharded replay semantics.
  const size_t n = shards_.size();
  std::vector<ChangeSet> split(n);
  for (const rdf::Triple& t : changes.additions) {
    split[ShardOf(t.subject)].additions.push_back(t);
  }
  for (const rdf::Triple& t : changes.removals) {
    split[ShardOf(t.subject)].removals.push_back(t);
  }

  // Land the per-shard commits — in parallel when a pool is attached.
  // Safe: shards are disjoint, and the per-shard fingerprint fold only
  // *reads* the shared dictionary (the caller interned all terms
  // before Commit, per the class contract).
  std::vector<Status> statuses(n, OkStatus());
  auto commit_shard = [&](size_t i) {
    auto result = shards_[i].Commit(std::move(split[i]), author, message,
                                    timestamp);
    statuses[i] = result.status();
  };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(n, commit_shard);
  } else {
    for (size_t i = 0; i < n; ++i) commit_shard(i);
  }
  for (const Status& s : statuses) {
    // Shards have no commit logs attached, so per-shard commits cannot
    // fail in practice; surface the first error defensively anyway.
    if (!s.ok()) return s;
  }

  return Publish(std::move(changes), std::move(author), std::move(message),
                 timestamp, FoldFingerprints(shards_),
                 std::make_shared<const rdf::KnowledgeBase>(
                     UnionSnapshot(shards_)));
}

uint64_t ShardedKnowledgeBase::FoldFingerprints(
    const std::vector<VersionedKnowledgeBase>& shards) {
  // Seed + shard count + per-shard chained fingerprints: equal folds
  // denote identical content, identical TermId mapping AND identical
  // sharding layout, so handles stay valid engine cache keys.
  size_t h = static_cast<size_t>(Fnv1a64("evorec-sharded-kb"));
  HashCombine(h, shards.size());
  for (const VersionedKnowledgeBase& shard : shards) {
    HashCombine(h, shard.Handle(shard.head()).value().fingerprint);
  }
  return static_cast<uint64_t>(h);
}

rdf::KnowledgeBase ShardedKnowledgeBase::UnionSnapshot(
    const std::vector<VersionedKnowledgeBase>& shards) {
  // Concatenate the shards' frozen segment lists. Subject partitions
  // are disjoint, so no triple appears in two shards and the k-way
  // merged scans of the union store cannot mis-resolve a last-wins
  // tie across sub-lists; the merge restores global SPO order.
  std::vector<std::shared_ptr<const rdf::Segment>> segments;
  size_t total = 0;
  for (const VersionedKnowledgeBase& shard : shards) {
    const rdf::TripleStore& store =
        shard.Snapshot(shard.head()).value()->store();
    const auto& segs = store.segments();
    segments.insert(segments.end(), segs.begin(), segs.end());
    total += store.size();
  }
  return rdf::KnowledgeBase(
      shards.front().shared_dictionary(),
      rdf::TripleStore::FromSegments(std::move(segments), total));
}

size_t ShardedKnowledgeBase::StorageBytes() const {
  // Accounting only — call from the committer thread or when
  // quiescent (it walks shard internals commits mutate).
  std::unordered_set<const void*> seen;
  size_t bytes = 0;
  for (const VersionedKnowledgeBase& shard : shards_) {
    bytes += shard.StorageBytes(seen);
  }
  return bytes + HistoryBytes(seen);
}

}  // namespace evorec::version

#include "version/versioned_kb.h"

#include <utility>

#include "common/hash.h"

namespace evorec::version {

namespace {

// Content hash of one term, memoized per TermId in `memo` (terms are
// immutable once interned).
uint64_t TermContentHash(const rdf::Dictionary& dictionary,
                         std::vector<uint64_t>& memo, rdf::TermId id) {
  if (id >= dictionary.size()) {
    // Raw id never interned (id-level callers build triples without a
    // dictionary); the id itself is the only identity available.
    return (0x9E3779B97F4A7C15ULL ^ id) | 1;
  }
  if (memo.size() <= id) memo.resize(dictionary.size(), 0);
  uint64_t& hash = memo[id];
  if (hash == 0) {
    // Hash the canonical serialisation, not just the dense id: two
    // KBs whose histories assign the same ids to *different* labels
    // must not collide (a wrong cache hit would serve evaluations
    // about the wrong data). |1 keeps 0 as the "unset" sentinel.
    hash = Fnv1a64(dictionary.term(id).ToNTriples()) | 1;
  }
  return hash;
}

// Folds one triple into `seed`, hashing term content.
uint64_t HashTriple(const rdf::Dictionary& dictionary,
                    std::vector<uint64_t>& memo, uint64_t seed,
                    const rdf::Triple& t) {
  size_t h = static_cast<size_t>(seed);
  HashCombine(h, TermContentHash(dictionary, memo, t.subject));
  HashCombine(h, TermContentHash(dictionary, memo, t.predicate));
  HashCombine(h, TermContentHash(dictionary, memo, t.object));
  return static_cast<uint64_t>(h);
}

uint64_t HashTriples(const rdf::Dictionary& dictionary,
                     std::vector<uint64_t>& memo, uint64_t seed,
                     const std::vector<rdf::Triple>& triples) {
  for (const rdf::Triple& t : triples) {
    seed = HashTriple(dictionary, memo, seed, t);
  }
  return seed;
}

// Content hash of one change set, chained onto the parent fingerprint.
// Additions and removals are salted differently so that moving a
// triple between the two lists changes the hash.
uint64_t ChainFingerprint(const rdf::Dictionary& dictionary,
                          std::vector<uint64_t>& memo, uint64_t parent,
                          const ChangeSet& changes) {
  uint64_t fp = HashTriples(dictionary, memo, parent ^ 0x9E3779B97F4A7C15ULL,
                            changes.additions);
  return HashTriples(dictionary, memo, fp ^ 0xC2B2AE3D27D4EB4FULL,
                     changes.removals);
}

}  // namespace

VersionedKnowledgeBase::Base VersionedKnowledgeBase::HashBase(
    rdf::KnowledgeBase kb) {
  std::vector<uint64_t> term_hashes;
  uint64_t fp = 0xCBF29CE484222325ULL;
  kb.store().ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    fp = HashTriple(kb.dictionary(), term_hashes, fp, t);
    return true;
  });
  return Base{std::move(kb), fp, std::move(term_hashes)};
}

VersionedKnowledgeBase::VersionedKnowledgeBase(rdf::KnowledgeBase initial)
    : VersionedKnowledgeBase(HashBase(std::move(initial))) {}

VersionedKnowledgeBase::VersionedKnowledgeBase(ArchivePolicy /*policy*/,
                                               rdf::KnowledgeBase initial)
    : VersionedKnowledgeBase(std::move(initial)) {}

VersionedKnowledgeBase VersionedKnowledgeBase::WithBaseFingerprint(
    rdf::KnowledgeBase base, uint64_t base_fingerprint) {
  return VersionedKnowledgeBase(Base{std::move(base), base_fingerprint, {}});
}

VersionedKnowledgeBase::VersionedKnowledgeBase(Base base)
    : VersionHistory(std::move(base.kb), base.fingerprint),
      dictionary_(latest().snapshot->shared_dictionary()),
      vocabulary_(rdf::Vocabulary::Intern(*dictionary_)),
      term_hashes_(std::move(base.term_hashes)) {}

void VersionedKnowledgeBase::AttachCommitLog(storage::CommitLog* log) {
  log_ = log;
  logged_terms_ = static_cast<rdf::TermId>(dictionary_->size());
}

Result<VersionId> VersionedKnowledgeBase::Commit(ChangeSet changes,
                                                 std::string author,
                                                 std::string message,
                                                 uint64_t timestamp) {
  // Single committer: it is the only writer of the history, so it
  // reads the head record without the lock and builds the new version
  // outside it; readers only see the version once it is published.
  const VersionRecord& head = latest();
  const uint64_t fingerprint =
      ChainFingerprint(*dictionary_, term_hashes_, head.fingerprint, changes);

  if (log_ != nullptr) {
    // Write-ahead: the record must be on the log before any in-memory
    // state changes, so a failed append fails the whole commit and a
    // recovered replica can never be *ahead* of the log.
    storage::DeltaRecord record;
    record.version_id = head.info.id + 1;
    record.timestamp = timestamp;
    record.author = author;
    record.message = message;
    record.fingerprint = fingerprint;
    record.first_term_id = logged_terms_;
    const rdf::TermId dict_size =
        static_cast<rdf::TermId>(dictionary_->size());
    record.new_terms.reserve(dict_size - logged_terms_);
    for (rdf::TermId id = logged_terms_; id < dict_size; ++id) {
      record.new_terms.push_back(dictionary_->term(id));
    }
    record.additions = changes.additions;
    record.removals = changes.removals;
    EVOREC_RETURN_IF_ERROR(log_->Append(record));
    logged_terms_ = dict_size;
  }

  // The new version's snapshot: a segment-list copy of the head, the
  // change set buffered last-wins on top, frozen into one new segment.
  rdf::KnowledgeBase next = *head.snapshot;
  next.store().AddAll(changes.additions);
  next.store().RemoveAll(changes.removals);
  next.store().Compact();
  return Publish(std::move(changes), std::move(author), std::move(message),
                 timestamp, fingerprint,
                 std::make_shared<const rdf::KnowledgeBase>(std::move(next)));
}

Result<const rdf::KnowledgeBase*> VersionedKnowledgeBase::Snapshot(
    VersionId v) const {
  auto pinned = Pinned(v);
  if (!pinned.ok()) return pinned.status();
  return pinned->get();
}

size_t VersionedKnowledgeBase::StorageBytes() const {
  std::unordered_set<const void*> seen;
  return StorageBytes(seen);
}

size_t VersionedKnowledgeBase::StorageBytes(
    std::unordered_set<const void*>& seen) const {
  return HistoryBytes(seen);
}

}  // namespace evorec::version

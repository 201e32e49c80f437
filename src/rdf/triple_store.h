#ifndef EVOREC_RDF_TRIPLE_STORE_H_
#define EVOREC_RDF_TRIPLE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "rdf/segment.h"
#include "rdf/triple.h"

namespace evorec::rdf {

/// Counters describing the indexing work a store has performed, so
/// benches and tests can verify that SPO-only consumers (Contains,
/// scans, Difference — i.e. the E1 delta path) never pay for the
/// secondary POS/OSP permutation indexes, and that the serving path
/// never materialises a whole-store flat copy. Copies start from zero.
struct TripleStoreStats {
  uint64_t compactions = 0;      ///< pending-buffer freezes
  uint64_t pos_full_builds = 0;  ///< POS rebuilt by full walk + sort
  uint64_t pos_catchups = 0;     ///< POS caught up by backlog merge
  uint64_t osp_full_builds = 0;
  uint64_t osp_catchups = 0;
  uint64_t segments_frozen = 0;  ///< freezes that produced a segment
  uint64_t segment_merges = 0;   ///< size-tiered pairwise segment merges
  /// Whole-store flat SPO copies: triples() flattening a multi-segment
  /// stack. The concurrent-serving contract asserts this stays zero on
  /// the read-serving path — snapshots are segment lists, never copies.
  uint64_t materializations = 0;

  uint64_t secondary_builds() const {
    return pos_full_builds + pos_catchups + osp_full_builds + osp_catchups;
  }
};

/// A segmented (terichdb-style) in-memory triple store.
///
/// Canonical storage is a stack of immutable, shared frozen segments
/// plus a small writable head (the pending buffers). Mutations are
/// buffered with last-wins semantics per triple (Add(t) after
/// Remove(t) leaves t present, and vice versa — exactly the sequential
/// semantics delta-chain replay depends on). Compact() *freezes* the
/// head into a new immutable segment in O(d log d) for a delta of d
/// ops — it never rewrites the frozen stack — and then applies a
/// size-tiered merge policy that keeps the stack depth logarithmic
/// and amortises total merge work to O(n log n).
///
/// Because segments are immutable and held by shared_ptr, copying a
/// store copies the segment *list* (O(#segments) pointer copies), not
/// the triples. That is what makes versioned snapshots cheap: every
/// version pins the segment list it was born with and the writer's
/// later freezes/merges never touch it.
///
/// Reads resolve last-wins across the stack: for each triple the
/// newest segment mentioning it decides (live run → present,
/// tombstone run → absent). Scans k-way-merge the per-segment sorted
/// runs, preserving the exact SPO emission order of the flat store
/// this replaces.
///
/// The secondary POS/OSP indexes are fully lazy and independent: each
/// carries its own freshness state and is only (re)built when a
/// (*,p,*)/(*,p,o) or (*,*,o) scan actually needs it. A stale
/// secondary index catches up by merging the accumulated backlog
/// (O(n + b log b)) rather than re-sorting, as long as the backlog
/// stays small relative to the store. They are stored as immutable
/// shared runs, so copies share a fresh index instead of copying it.
///
/// Thread-compatibility: a *frozen* store (no buffered mutations, as
/// left by Compact()) supports concurrent Contains / s-bound / full /
/// (s,p,o) pattern reads from any number of threads, because those
/// paths only binary-search the immutable stack. First-use POS/OSP
/// builds and triples() mutate memo state and need external
/// serialisation, as does any mutation.
class TripleStore {
 public:
  TripleStore() = default;

  /// Bulk sorted-load: adopts `sorted_spo` (strictly ascending SPO
  /// order, no duplicates — the caller's contract) as a single frozen
  /// base segment, bypassing the pending buffer entirely. This is the
  /// snapshot-loading fast path of the storage layer: decoding a saved
  /// snapshot yields the SPO run already in canonical order, so "load"
  /// is a move instead of an O(n log n) re-sort. Secondary indexes
  /// start unbuilt and materialise lazily like on any other store.
  static TripleStore FromSorted(std::vector<Triple> sorted_spo);

  /// Adopts an existing frozen segment stack whose effective triple
  /// count is `effective_size`. This is the zero-copy union view the
  /// sharded KB uses: concatenating the segment lists of stores over
  /// *disjoint* triple sets (shards partition by subject) yields a
  /// valid stack, because no triple of one sublist can shadow a triple
  /// of another. The segments stay shared with their owning stores.
  static TripleStore FromSegments(
      std::vector<std::shared_ptr<const Segment>> segments,
      size_t effective_size);

  // Copies share the frozen segment stack (pointer copies) and any
  // *fresh* secondary index; stale secondaries are dropped and rebuilt
  // lazily in the copy if ever needed (copying stale data plus its
  // catch-up backlog would cost more than a rebuild). A snapshot copy
  // is therefore O(#segments), independent of the triple count.
  TripleStore(const TripleStore& other);
  TripleStore& operator=(const TripleStore& other);
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  /// Inserts `t`; duplicates are absorbed.
  void Add(const Triple& t);

  /// Removes `t` if present.
  void Remove(const Triple& t);

  /// Bulk-inserts a batch.
  void AddAll(const std::vector<Triple>& triples);

  /// Bulk-removes a batch.
  void RemoveAll(const std::vector<Triple>& triples);

  /// True iff the store contains `t`.
  bool Contains(const Triple& t) const;

  /// Returns all triples matching `pattern`, in SPO order.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Invokes `fn` for every triple matching `pattern`; stops early if
  /// `fn` returns false. Statically-typed hot path: the callable is
  /// inlined into the index scan loop. Emission order is the scanning
  /// index's order: SPO for (s,·,·), (*,*,o), (*,p,o) and full scans;
  /// (o,s) within the fixed predicate for (*,p,*).
  template <class Fn>
  void ScanT(const TriplePattern& pattern, Fn&& fn) const {
    const bool has_s = pattern.subject != kAnyTerm;
    const bool has_p = pattern.predicate != kAnyTerm;
    const bool has_o = pattern.object != kAnyTerm;

    if (has_s) {
      // (s,*,*), (s,p,*), (s,p,o), (s,*,o): SPO prefix on s (and p),
      // k-way merged across the segment stack.
      Compact();
      Triple lo{pattern.subject, has_p ? pattern.predicate : 0,
                (has_p && has_o) ? pattern.object : 0};
      detail::WalkSegments(segments_, lo, [&](const Triple& t) {
        if (t.subject != pattern.subject) return false;
        if (has_p) {
          if (t.predicate > pattern.predicate) return false;
          if (t.predicate != pattern.predicate) return true;
        }
        if (has_o && t.object != pattern.object) return true;
        return static_cast<bool>(fn(t));
      });
      return;
    }
    if (has_p) {
      // (*,p,*), (*,p,o): POS prefix on p (and o).
      EnsurePos();
      const std::vector<Triple>& pos = *pos_;
      Triple lo{0, pattern.predicate, has_o ? pattern.object : 0};
      auto it = std::lower_bound(pos.begin(), pos.end(), lo, PosLess);
      for (; it != pos.end(); ++it) {
        if (it->predicate != pattern.predicate) break;
        if (has_o && it->object != pattern.object) break;
        if (!fn(*it)) return;
      }
      return;
    }
    if (has_o) {
      // (*,*,o): OSP prefix.
      EnsureOsp();
      const std::vector<Triple>& osp = *osp_;
      Triple lo{0, 0, pattern.object};
      auto it = std::lower_bound(osp.begin(), osp.end(), lo, OspLess);
      for (; it != osp.end(); ++it) {
        if (it->object != pattern.object) break;
        if (!fn(*it)) return;
      }
      return;
    }
    // (*,*,*): full merged scan.
    Compact();
    detail::WalkSegments(segments_, Triple{0, 0, 0}, [&](const Triple& t) {
      return static_cast<bool>(fn(t));
    });
  }

  /// Type-erased convenience wrapper over ScanT.
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& fn) const;

  /// Number of distinct triples. O(1) on a frozen store: freezes
  /// maintain the effective count incrementally.
  size_t size() const;

  bool empty() const { return size() == 0; }

  /// All triples in canonical SPO order. On a single-segment store
  /// this aliases the base segment (zero copy); on a multi-segment
  /// stack it materialises (and memoises) a flat copy, counted in
  /// stats().materializations — serving-path code must prefer
  /// ScanT/Contains, which never flatten.
  const std::vector<Triple>& triples() const;

  /// Set difference: triples of `a` not in `b` (both need not be
  /// compacted; result is SPO-sorted). This is the primitive behind
  /// low-level deltas (δ+ = After − Before, δ− = Before − After).
  /// Streams both segment stacks — no flattening, no secondary
  /// indexes.
  static std::vector<Triple> Difference(const TripleStore& a,
                                        const TripleStore& b);

  /// Freezes buffered mutations into a new immutable segment
  /// (O(d log d + d·log n·depth) for a delta of d ops — independent of
  /// the store size n except for binary-search probes), then runs the
  /// size-tiered merge policy. Secondary indexes are NOT rebuilt here
  /// — they catch up lazily on the first POS/OSP scan. Called
  /// automatically by every const accessor; exposed for benchmarks
  /// that want to measure indexing cost explicitly.
  void Compact() const;

  /// Compact() plus eager build of both secondary indexes — for
  /// callers that know a scan-heavy phase follows.
  void PrepareIndexes() const;

  /// The frozen segment stack, oldest → newest (freezes pending
  /// mutations first). Segments are immutable and shared; holding the
  /// returned pointers pins this store's current state for free.
  const std::vector<std::shared_ptr<const Segment>>& segments() const;

  /// Approximate resident bytes of this store's current state
  /// (segments, indexes actually materialised, pending buffers,
  /// catch-up backlog), counting each shared immutable component
  /// (segment, index run) only once across every store probed with the
  /// same `seen` set — the honest footprint of a version chain whose
  /// snapshots share segments. Never triggers a compact or an index
  /// build.
  size_t MemoryBytesDedup(std::unordered_set<const void*>& seen) const;

  /// Indexing-work counters for this instance.
  const TripleStoreStats& stats() const { return stats_; }

 private:
  /// Freshness of a secondary index relative to the canonical stack.
  enum class IndexState : uint8_t {
    kFresh,    // matches the segment stack
    kStale,    // catches up by applying the backlog
    kRebuild,  // must be rebuilt from the stack (never built, dropped
               // on copy, or the backlog outgrew the threshold)
  };

  static bool PosLess(const Triple& a, const Triple& b) {
    if (a.predicate != b.predicate) return a.predicate < b.predicate;
    if (a.object != b.object) return a.object < b.object;
    return a.subject < b.subject;
  }
  static bool OspLess(const Triple& a, const Triple& b) {
    if (a.object != b.object) return a.object < b.object;
    if (a.subject != b.subject) return a.subject < b.subject;
    return a.predicate < b.predicate;
  }

  /// Last-wins probe of the frozen stack only (ignores pending).
  bool ContainsFrozen(const Triple& t) const;
  /// Size-tiered merge: collapses the newest segments while one is at
  /// least half its older neighbour, dropping tombstones when a merge
  /// reaches the bottom of the stack.
  void MaybeMergeSegments() const;
  void EnsurePos() const;
  void EnsureOsp() const;
  /// Folds a freshly-frozen delta into the secondary-index backlog
  /// (last-wins), demoting stale indexes to kRebuild if the backlog
  /// outgrows the catch-up threshold.
  void AccumulateBacklog(const std::vector<Triple>& adds,
                         const std::vector<Triple>& removes) const;
  /// Frees the backlog once no index depends on it.
  void MaybeReleaseBacklog() const;

  // Canonical storage: immutable frozen segments, oldest → newest
  // (valid after Compact()). The vector itself is per-store; the
  // segments are shared across stores.
  mutable std::vector<std::shared_ptr<const Segment>> segments_;
  // Effective triple count of the stack (maintained at freeze time).
  mutable size_t size_ = 0;
  // Memoised flat SPO materialisation (null until triples() needs it;
  // aliases the base segment when the stack is a single segment).
  mutable std::shared_ptr<const std::vector<Triple>> flat_;
  // Permutations stored as reordered flat runs for cache-friendly
  // scans; immutable and shared between copies while fresh.
  mutable std::shared_ptr<const std::vector<Triple>> pos_;  // (p, o, s)
  mutable std::shared_ptr<const std::vector<Triple>> osp_;  // (o, s, p)
  mutable IndexState pos_state_ = IndexState::kFresh;
  mutable IndexState osp_state_ = IndexState::kFresh;
  // The writable head: mutations buffered since the last freeze. A
  // triple lives in at most one of the two sets (the most recent
  // operation wins).
  mutable std::unordered_set<Triple, TripleHash> pending_adds_;
  mutable std::unordered_set<Triple, TripleHash> pending_removes_;
  mutable bool dirty_ = false;
  // SPO-sorted, disjoint, last-wins accumulation of every delta frozen
  // since the oldest stale secondary index was fresh. Because it is
  // last-wins, applying it is idempotent: it yields the current state
  // from *any* intermediate index generation.
  mutable std::vector<Triple> backlog_adds_;
  mutable std::vector<Triple> backlog_removes_;
  mutable TripleStoreStats stats_;
};

}  // namespace evorec::rdf

#endif  // EVOREC_RDF_TRIPLE_STORE_H_

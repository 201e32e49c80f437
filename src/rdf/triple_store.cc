#include "rdf/triple_store.h"

#include <algorithm>
#include <utility>

namespace evorec::rdf {

namespace {

// Rewrites `base` (sorted-unique under `less`) to (base ∪ adds) −
// removes in one linear pass. `adds` and `removes` must each be
// sorted-unique under `less` and disjoint from each other; elements of
// `adds` already in `base` and elements of `removes` absent from
// `base` are tolerated, which is what makes re-applying a last-wins
// backlog idempotent.
template <class Less>
void MergeApply(std::vector<Triple>& base, const std::vector<Triple>& adds,
                const std::vector<Triple>& removes, Less less) {
  if (adds.empty() && removes.empty()) return;
  std::vector<Triple> out;
  out.reserve(base.size() + adds.size());
  auto r = removes.begin();
  const auto re = removes.end();
  // Consumes `removes` monotonically: emitted candidates arrive in
  // `less` order.
  auto removed = [&](const Triple& t) {
    while (r != re && less(*r, t)) ++r;
    return r != re && !less(t, *r);
  };
  auto b = base.begin();
  const auto be = base.end();
  auto a = adds.begin();
  const auto ae = adds.end();
  while (b != be && a != ae) {
    if (less(*b, *a)) {
      if (!removed(*b)) out.push_back(*b);
      ++b;
    } else if (less(*a, *b)) {
      if (!removed(*a)) out.push_back(*a);
      ++a;
    } else {  // duplicate add: emit once
      if (!removed(*b)) out.push_back(*b);
      ++b;
      ++a;
    }
  }
  for (; b != be; ++b) {
    if (!removed(*b)) out.push_back(*b);
  }
  for (; a != ae; ++a) {
    if (!removed(*a)) out.push_back(*a);
  }
  base.swap(out);
}

// out = (lhs − minus) ∪ plus, all sorted-unique in SPO order.
std::vector<Triple> RebaseSet(const std::vector<Triple>& lhs,
                              const std::vector<Triple>& minus,
                              const std::vector<Triple>& plus) {
  std::vector<Triple> kept;
  kept.reserve(lhs.size());
  std::set_difference(lhs.begin(), lhs.end(), minus.begin(), minus.end(),
                      std::back_inserter(kept));
  std::vector<Triple> out;
  out.reserve(kept.size() + plus.size());
  std::set_union(kept.begin(), kept.end(), plus.begin(), plus.end(),
                 std::back_inserter(out));
  return out;
}

void FreeVector(std::vector<Triple>& v) {
  v.clear();
  v.shrink_to_fit();
}

}  // namespace

TripleStore TripleStore::FromSorted(std::vector<Triple> sorted_spo) {
  TripleStore store;
  store.size_ = sorted_spo.size();
  if (!sorted_spo.empty()) {
    store.segments_.push_back(std::make_shared<const Segment>(
        std::move(sorted_spo), std::vector<Triple>{}));
  }
  // The empty secondary indexes no longer mirror the stack; they
  // rebuild from it on first use.
  store.pos_state_ = IndexState::kRebuild;
  store.osp_state_ = IndexState::kRebuild;
  return store;
}

TripleStore TripleStore::FromSegments(
    std::vector<std::shared_ptr<const Segment>> segments,
    size_t effective_size) {
  TripleStore store;
  store.segments_ = std::move(segments);
  store.size_ = effective_size;
  store.pos_state_ = IndexState::kRebuild;
  store.osp_state_ = IndexState::kRebuild;
  return store;
}

TripleStore::TripleStore(const TripleStore& other)
    : segments_(other.segments_),
      size_(other.size_),
      flat_(other.flat_),
      pending_adds_(other.pending_adds_),
      pending_removes_(other.pending_removes_),
      dirty_(other.dirty_) {
  if (other.pos_state_ == IndexState::kFresh) {
    pos_ = other.pos_;  // shared immutable run — pointer copy
  } else {
    pos_state_ = IndexState::kRebuild;
  }
  if (other.osp_state_ == IndexState::kFresh) {
    osp_ = other.osp_;
  } else {
    osp_state_ = IndexState::kRebuild;
  }
  // The backlog only serves stale indexes, and those were dropped.
}

TripleStore& TripleStore::operator=(const TripleStore& other) {
  if (this != &other) {
    TripleStore tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

void TripleStore::Add(const Triple& t) {
  pending_removes_.erase(t);
  pending_adds_.insert(t);
  dirty_ = true;
}

void TripleStore::Remove(const Triple& t) {
  pending_adds_.erase(t);
  pending_removes_.insert(t);
  dirty_ = true;
}

void TripleStore::AddAll(const std::vector<Triple>& triples) {
  if (triples.empty()) return;
  pending_adds_.reserve(pending_adds_.size() + triples.size());
  for (const Triple& t : triples) {
    pending_removes_.erase(t);
    pending_adds_.insert(t);
  }
  dirty_ = true;
}

void TripleStore::RemoveAll(const std::vector<Triple>& triples) {
  if (triples.empty()) return;
  pending_removes_.reserve(pending_removes_.size() + triples.size());
  for (const Triple& t : triples) {
    pending_adds_.erase(t);
    pending_removes_.insert(t);
  }
  dirty_ = true;
}

bool TripleStore::ContainsFrozen(const Triple& t) const {
  // Newest segment mentioning the triple decides (last-wins).
  for (size_t i = segments_.size(); i-- > 0;) {
    const Segment& seg = *segments_[i];
    if (seg.ContainsLive(t)) return true;
    if (seg.ContainsTombstone(t)) return false;
  }
  return false;
}

void TripleStore::Compact() const {
  if (!dirty_) return;
  dirty_ = false;
  if (pending_adds_.empty() && pending_removes_.empty()) return;

  // The buffers are disjoint (Add/Remove keep a triple in the set of
  // its most recent operation), so adds and removes can be applied in
  // either order.
  std::vector<Triple> adds(pending_adds_.begin(), pending_adds_.end());
  std::vector<Triple> removes(pending_removes_.begin(),
                              pending_removes_.end());
  pending_adds_.clear();
  pending_removes_.clear();
  std::sort(adds.begin(), adds.end());
  std::sort(removes.begin(), removes.end());

  // Freeze the head: filter the delta down to the *effective* state
  // transition against the frozen stack (an add of a visible triple or
  // a remove of an absent one changes nothing), so segments carry
  // exactly the net change — which also keeps size() O(1).
  std::vector<Triple> live;
  live.reserve(adds.size());
  for (const Triple& t : adds) {
    if (!ContainsFrozen(t)) live.push_back(t);
  }
  std::vector<Triple> tombstones;
  tombstones.reserve(removes.size());
  for (const Triple& t : removes) {
    if (ContainsFrozen(t)) tombstones.push_back(t);
  }

  if (!live.empty() || !tombstones.empty()) {
    size_ += live.size();
    size_ -= tombstones.size();
    if (segments_.empty()) tombstones.clear();  // nothing older to shadow
    segments_.push_back(std::make_shared<const Segment>(
        std::move(live), std::move(tombstones)));
    ++stats_.segments_frozen;
    flat_.reset();
    MaybeMergeSegments();
  }

  if (pos_state_ == IndexState::kFresh) pos_state_ = IndexState::kStale;
  if (osp_state_ == IndexState::kFresh) osp_state_ = IndexState::kStale;
  AccumulateBacklog(adds, removes);
  ++stats_.compactions;
}

void TripleStore::MaybeMergeSegments() const {
  // Size-tiered policy: keep entry counts geometrically decreasing
  // newest-to-oldest. Whenever a freeze (or a previous merge) leaves
  // the newest segment at least half its older neighbour, merge the
  // pair; tombstones are garbage-collected when a merge reaches the
  // bottom of the stack. Bounds the stack depth at O(log n) and
  // amortises total merge work to O(n log n) over any op sequence.
  while (segments_.size() >= 2) {
    const size_t k = segments_.size() - 1;
    if (segments_[k - 1]->entry_count() > 2 * segments_[k]->entry_count()) {
      break;
    }
    auto merged = Segment::Merge(*segments_[k - 1], *segments_[k],
                                 /*drop_tombstones=*/k - 1 == 0);
    segments_.pop_back();
    segments_.back() = std::move(merged);
    ++stats_.segment_merges;
    if (segments_.back()->entry_count() == 0) {
      segments_.pop_back();  // adds and removes annihilated completely
    }
  }
}

void TripleStore::AccumulateBacklog(const std::vector<Triple>& adds,
                                    const std::vector<Triple>& removes) const {
  if (pos_state_ != IndexState::kStale && osp_state_ != IndexState::kStale) {
    return;  // nothing can use the backlog
  }
  // Last-wins composition keeps adds/removes disjoint: a newer remove
  // cancels an older backlog add and vice versa.
  backlog_adds_ = RebaseSet(backlog_adds_, removes, adds);
  backlog_removes_ = RebaseSet(backlog_removes_, adds, removes);

  // Once the backlog rivals the store itself, catching up costs as
  // much as rebuilding — stop carrying it.
  const size_t backlog = backlog_adds_.size() + backlog_removes_.size();
  if (backlog > size_ / 2 + 64) {
    if (pos_state_ == IndexState::kStale) {
      pos_state_ = IndexState::kRebuild;
      pos_.reset();
    }
    if (osp_state_ == IndexState::kStale) {
      osp_state_ = IndexState::kRebuild;
      osp_.reset();
    }
    MaybeReleaseBacklog();
  }
}

void TripleStore::MaybeReleaseBacklog() const {
  if (pos_state_ != IndexState::kStale && osp_state_ != IndexState::kStale) {
    FreeVector(backlog_adds_);
    FreeVector(backlog_removes_);
  }
}

void TripleStore::EnsurePos() const {
  Compact();
  if (pos_state_ == IndexState::kFresh) {
    // kFresh with no run yet only happens on a store that has never
    // frozen anything — i.e. an empty store.
    if (!pos_) pos_ = std::make_shared<const std::vector<Triple>>();
    return;
  }
  std::vector<Triple> next;
  if (pos_state_ == IndexState::kStale) {
    if (pos_) next = *pos_;
    std::vector<Triple> adds = backlog_adds_;
    std::vector<Triple> removes = backlog_removes_;
    std::sort(adds.begin(), adds.end(), PosLess);
    std::sort(removes.begin(), removes.end(), PosLess);
    MergeApply(next, adds, removes, PosLess);
    ++stats_.pos_catchups;
  } else {
    next.reserve(size_);
    detail::WalkSegments(segments_, Triple{0, 0, 0}, [&](const Triple& t) {
      next.push_back(t);
      return true;
    });
    std::sort(next.begin(), next.end(), PosLess);
    ++stats_.pos_full_builds;
  }
  pos_ = std::make_shared<const std::vector<Triple>>(std::move(next));
  pos_state_ = IndexState::kFresh;
  MaybeReleaseBacklog();
}

void TripleStore::EnsureOsp() const {
  Compact();
  if (osp_state_ == IndexState::kFresh) {
    if (!osp_) osp_ = std::make_shared<const std::vector<Triple>>();
    return;
  }
  std::vector<Triple> next;
  if (osp_state_ == IndexState::kStale) {
    if (osp_) next = *osp_;
    std::vector<Triple> adds = backlog_adds_;
    std::vector<Triple> removes = backlog_removes_;
    std::sort(adds.begin(), adds.end(), OspLess);
    std::sort(removes.begin(), removes.end(), OspLess);
    MergeApply(next, adds, removes, OspLess);
    ++stats_.osp_catchups;
  } else {
    next.reserve(size_);
    detail::WalkSegments(segments_, Triple{0, 0, 0}, [&](const Triple& t) {
      next.push_back(t);
      return true;
    });
    std::sort(next.begin(), next.end(), OspLess);
    ++stats_.osp_full_builds;
  }
  osp_ = std::make_shared<const std::vector<Triple>>(std::move(next));
  osp_state_ = IndexState::kFresh;
  MaybeReleaseBacklog();
}

void TripleStore::PrepareIndexes() const {
  Compact();
  EnsurePos();
  EnsureOsp();
}

const std::vector<std::shared_ptr<const Segment>>& TripleStore::segments()
    const {
  Compact();
  return segments_;
}

size_t TripleStore::MemoryBytesDedup(
    std::unordered_set<const void*>& seen) const {
  size_t bytes = 0;
  for (const auto& seg : segments_) {
    if (seen.insert(seg.get()).second) bytes += seg->MemoryBytes();
  }
  if (pos_ && seen.insert(pos_.get()).second) {
    bytes += pos_->capacity() * sizeof(Triple);
  }
  if (osp_ && seen.insert(osp_.get()).second) {
    bytes += osp_->capacity() * sizeof(Triple);
  }
  if (flat_ &&
      (segments_.empty() || flat_.get() != &segments_.front()->live()) &&
      seen.insert(flat_.get()).second) {
    bytes += flat_->capacity() * sizeof(Triple);
  }
  bytes += (backlog_adds_.capacity() + backlog_removes_.capacity()) *
           sizeof(Triple);
  bytes += (pending_adds_.size() + pending_removes_.size()) * sizeof(Triple);
  return bytes;
}

bool TripleStore::Contains(const Triple& t) const {
  Compact();
  return ContainsFrozen(t);
}

size_t TripleStore::size() const {
  Compact();
  return size_;
}

const std::vector<Triple>& TripleStore::triples() const {
  Compact();
  if (flat_) return *flat_;
  if (segments_.empty()) {
    flat_ = std::make_shared<const std::vector<Triple>>();
    return *flat_;
  }
  if (segments_.size() == 1) {
    // Zero-copy alias: the lone base segment *is* the flat SPO run
    // (its tombstones, if any, shadow nothing).
    flat_ = std::shared_ptr<const std::vector<Triple>>(segments_.front(),
                                                       &segments_.front()->live());
    return *flat_;
  }
  auto flat = std::make_shared<std::vector<Triple>>();
  flat->reserve(size_);
  detail::WalkSegments(segments_, Triple{0, 0, 0}, [&](const Triple& t) {
    flat->push_back(t);
    return true;
  });
  ++stats_.materializations;
  flat_ = std::move(flat);
  return *flat_;
}

void TripleStore::Scan(const TriplePattern& pattern,
                       const std::function<bool(const Triple&)>& fn) const {
  ScanT(pattern, fn);
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  // Every scan branch already emits in SPO order except (*,p,*), whose
  // POS range can interleave subjects across objects. Track order
  // violations during collection so the O(n log n) repair sort only
  // runs when the range really is out of order (single-object
  // predicates — rdfs:subClassOf-style ranges — come out sorted).
  const bool pos_range_scan = pattern.subject == kAnyTerm &&
                              pattern.predicate != kAnyTerm &&
                              pattern.object == kAnyTerm;
  bool sorted = true;
  ScanT(pattern, [&](const Triple& t) {
    if (pos_range_scan && !out.empty() && t < out.back()) sorted = false;
    out.push_back(t);
    return true;
  });
  if (!sorted) std::sort(out.begin(), out.end());
  return out;
}

std::vector<Triple> TripleStore::Difference(const TripleStore& a,
                                            const TripleStore& b) {
  a.Compact();
  b.Compact();
  std::vector<Triple> out;
  detail::EffectiveCursor ca(a.segments_, Triple{0, 0, 0});
  detail::EffectiveCursor cb(b.segments_, Triple{0, 0, 0});
  Triple ta, tb;
  bool ha = ca.Next(&ta);
  bool hb = cb.Next(&tb);
  while (ha) {
    if (!hb || ta < tb) {
      out.push_back(ta);
      ha = ca.Next(&ta);
    } else if (tb < ta) {
      hb = cb.Next(&tb);
    } else {
      ha = ca.Next(&ta);
      hb = cb.Next(&tb);
    }
  }
  return out;
}

}  // namespace evorec::rdf

#ifndef EVOREC_DELTA_LOW_LEVEL_DELTA_H_
#define EVOREC_DELTA_LOW_LEVEL_DELTA_H_

#include <unordered_map>
#include <vector>

#include "rdf/knowledge_base.h"
#include "rdf/triple.h"
#include "version/version.h"

namespace evorec::delta {

/// The low-level delta between two versions V1 → V2 (paper §II.a):
/// δ+ = triples added, δ− = triples deleted, |δ| = |δ+| + |δ−|.
struct LowLevelDelta {
  std::vector<rdf::Triple> added;    ///< δ+: in V2 but not V1, SPO order.
  std::vector<rdf::Triple> removed;  ///< δ−: in V1 but not V2, SPO order.

  /// |δ| = |δ+| + |δ−|.
  size_t size() const { return added.size() + removed.size(); }
  bool empty() const { return added.empty() && removed.empty(); }
};

/// Computes the low-level delta between two snapshots (which must share
/// a dictionary; the function compares TermIds).
LowLevelDelta ComputeLowLevelDelta(const rdf::KnowledgeBase& before,
                                   const rdf::KnowledgeBase& after);

/// The low-level delta of applying `changes` on top of `before` —
/// equal to ComputeLowLevelDelta(before, before + changes) but
/// O(|changes| · log T) membership probes instead of an O(T) store
/// diff: the incremental-refresh path, where the commit's ChangeSet is
/// already in hand. Follows ChangeSet semantics (removals win over
/// additions of the same triple): δ+ = additions that are neither
/// removed in the same set nor already present, δ− = removals that
/// were present. Both sides come out SPO-sorted and deduplicated, like
/// the store-diff path.
LowLevelDelta DeltaFromCandidates(const rdf::KnowledgeBase& before,
                                  const version::ChangeSet& changes);

/// Per-term change counts: δ(n) = number of changed triples in which
/// term n appears (in any position; each changed triple contributes at
/// most 1 to a given term). This is the direct reading of the paper's
/// δ_{V1,V2}(n).
std::unordered_map<rdf::TermId, size_t> PerTermChangeCounts(
    const LowLevelDelta& delta);

}  // namespace evorec::delta

#endif  // EVOREC_DELTA_LOW_LEVEL_DELTA_H_

#include "delta/low_level_delta.h"

#include <algorithm>

namespace evorec::delta {

LowLevelDelta ComputeLowLevelDelta(const rdf::KnowledgeBase& before,
                                   const rdf::KnowledgeBase& after) {
  LowLevelDelta delta;
  delta.added = rdf::TripleStore::Difference(after.store(), before.store());
  delta.removed = rdf::TripleStore::Difference(before.store(), after.store());
  return delta;
}

namespace {

std::vector<rdf::Triple> SortedUnique(std::vector<rdf::Triple> triples) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  return triples;
}

}  // namespace

LowLevelDelta DeltaFromCandidates(const rdf::KnowledgeBase& before,
                                  const version::ChangeSet& changes) {
  const std::vector<rdf::Triple> additions = SortedUnique(changes.additions);
  const std::vector<rdf::Triple> removals = SortedUnique(changes.removals);
  LowLevelDelta delta;
  // Removals are applied after additions, so a triple in both lists
  // nets to absent: it is never an addition, and it is a removal
  // exactly when `before` held it.
  for (const rdf::Triple& t : additions) {
    if (std::binary_search(removals.begin(), removals.end(), t)) continue;
    if (!before.store().Contains(t)) delta.added.push_back(t);
  }
  for (const rdf::Triple& t : removals) {
    if (before.store().Contains(t)) delta.removed.push_back(t);
  }
  return delta;
}

namespace {

void AccumulateTriple(const rdf::Triple& t,
                      std::unordered_map<rdf::TermId, size_t>& counts) {
  ++counts[t.subject];
  if (t.predicate != t.subject) ++counts[t.predicate];
  if (t.object != t.subject && t.object != t.predicate) ++counts[t.object];
}

}  // namespace

std::unordered_map<rdf::TermId, size_t> PerTermChangeCounts(
    const LowLevelDelta& delta) {
  std::unordered_map<rdf::TermId, size_t> counts;
  for (const rdf::Triple& t : delta.added) AccumulateTriple(t, counts);
  for (const rdf::Triple& t : delta.removed) AccumulateTriple(t, counts);
  return counts;
}

}  // namespace evorec::delta

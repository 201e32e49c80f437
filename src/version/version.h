#ifndef EVOREC_VERSION_VERSION_H_
#define EVOREC_VERSION_VERSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/triple.h"

namespace evorec::version {

/// Dense version identifier; version 0 is the base snapshot.
using VersionId = uint32_t;

/// A cheap, copyable reference to one version of a KbView
/// (version/kb_view.h) — the cache-key currency of the engine
/// layer. The fingerprint is a hash chained over the base snapshot
/// and every committed change set, folding the *serialised term
/// content* of each triple in TermId order. Equal fingerprints
/// therefore denote snapshots with identical content AND an identical
/// TermId mapping — exactly the equivalence cached evaluations need,
/// since their consumers (profiles, reports) speak TermIds. Distinct
/// knowledge-base instances share fingerprints when their
/// histories are identical (same operations, same intern order, e.g.
/// regenerated from one seed); content-equal KBs interned in a
/// different order fingerprint differently, which is a safe cache
/// miss, never a wrong hit.
struct SnapshotHandle {
  VersionId id = 0;
  uint64_t fingerprint = 0;

  friend bool operator==(const SnapshotHandle& a, const SnapshotHandle& b) {
    return a.fingerprint == b.fingerprint;
  }
};

/// Commit metadata attached to each version — the raw material for
/// provenance/transparency (paper §III.b: who changed what and when).
struct VersionInfo {
  VersionId id = 0;
  std::string author;
  std::string message;
  /// Logical commit time (caller-supplied monotonic tick or epoch
  /// seconds; the library never reads wall-clock itself).
  uint64_t timestamp = 0;
  size_t additions = 0;
  size_t removals = 0;
};

/// A set of triple-level changes to apply on top of a version.
/// Removals are applied after additions; adding and removing the same
/// triple in one ChangeSet nets to "absent".
struct ChangeSet {
  std::vector<rdf::Triple> additions;
  std::vector<rdf::Triple> removals;

  bool empty() const { return additions.empty() && removals.empty(); }
  size_t size() const { return additions.size() + removals.size(); }
};

/// How historical versions are stored (cf. the full, delta and hybrid
/// archiving policies for evolving RDF datasets, Stefanidis et al.
/// [13]). There is one representation: every version is fully
/// materialised as a pinned segment-sharing snapshot, and keeps the
/// change set that produced it. Consecutive snapshots share every
/// frozen segment they have in common, which gives full
/// materialisation's O(1) reads at close to a delta chain's memory, so
/// the delta-chain and hybrid policies were dropped (EXPERIMENTS.md,
/// E1, keeps their figures). The enum names that one representation
/// and has no other value.
enum class ArchivePolicy {
  kFullMaterialization,
};

}  // namespace evorec::version

#endif  // EVOREC_VERSION_VERSION_H_

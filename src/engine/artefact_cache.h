#ifndef EVOREC_ENGINE_ARTEFACT_CACHE_H_
#define EVOREC_ENGINE_ARTEFACT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/result.h"
#include "common/single_flight.h"
#include "common/thread_pool.h"
#include "graph/betweenness.h"
#include "measures/measure_context.h"

namespace evorec::engine {

/// Counters exposing the artefact cache's behaviour. The reuse
/// contract of the cold path reads directly off them: walking a
/// K-version chain must show `betweenness_runs == K` and
/// `graph_builds == K` (the pre-cache pair-keyed path performed
/// 2·(K−1) of each, rebuilding every middle version's artefacts for
/// both pairs that touch it).
struct ArtefactCacheStats {
  uint64_t hits = 0;        ///< base artefacts served from the cache
  uint64_t misses = 0;      ///< triggered a base build
  uint64_t coalesced = 0;   ///< joined a concurrent in-flight build
  uint64_t evictions = 0;   ///< LRU evictions
  uint64_t snapshot_loads = 0;    ///< materializer invocations
  uint64_t view_builds = 0;       ///< SchemaView::Build runs
  uint64_t graph_builds = 0;      ///< SchemaGraph::Build runs
  uint64_t betweenness_runs = 0;  ///< full Brandes computations run
};

/// Counters of the incremental-refresh path. Together with
/// ArtefactCacheStats they are the proof obligations of the O(|δ|)
/// contract: below the churn threshold a commit must show `advanced`
/// ticking (never `full_recomputes`) and the cumulative
/// `recomputed_sources` staying proportional to the cumulative
/// `affected_sources` — not to `total_sources`.
struct IncrementalStats {
  uint64_t refreshes = 0;        ///< Refresh calls
  uint64_t advanced = 0;         ///< betweenness advanced incrementally
  uint64_t full_recomputes = 0;  ///< advance fell back to a full run
  /// Predecessor had no computed betweenness — the successor cell
  /// stays lazy (pay-for-what-you-use is preserved across refreshes).
  uint64_t stayed_lazy = 0;
  uint64_t touched_nodes = 0;      ///< cumulative adjacency-diff sizes
  uint64_t affected_sources = 0;   ///< cumulative frontier sizes
  uint64_t recomputed_sources = 0; ///< cumulative sources re-run
  uint64_t total_sources = 0;      ///< cumulative graph sizes (denominator)
};

/// An LRU cache of per-*version* cold-path artefacts (snapshot, schema
/// view, own-universe schema graph, lazy betweenness cell), keyed by
/// the version's content fingerprint — NOT by version pair. Contexts
/// for the pairs (V1,V2) and (V2,V3) therefore share every V2
/// artefact, and a timeline walk over K versions builds each version's
/// artefacts exactly once.
///
/// Thread-safe and single-flight (a SingleFlightCache, with its LRU
/// and failure policy): concurrent requests for one missing
/// fingerprint coalesce into a single build (the materializer runs
/// once), and the betweenness cells are single-flight per
/// (fingerprint, context-options) — sharing one cache across
/// concurrently building contexts never duplicates a Brandes run.
/// Handed-out bundles are immutable shared state and survive eviction
/// while referenced.
class ArtefactCache {
 public:
  /// Supplies the snapshot of the version being cached on a miss.
  /// Called outside the cache lock; must be safe to invoke
  /// concurrently with materializers of *other* fingerprints (the
  /// engine's call KbView::SharedSnapshot, which is).
  using Materializer =
      std::function<Result<std::shared_ptr<const rdf::KnowledgeBase>>()>;

  /// `capacity` is clamped to >= 1. `pool` (optional, must outlive the
  /// cache) parallelises the Brandes passes of the betweenness cells.
  explicit ArtefactCache(size_t capacity, ThreadPool* pool = nullptr);

  /// The artefact bundle of the version identified by `fingerprint`,
  /// building it via `materialize` on a miss. The returned bundle's
  /// betweenness cell matches `options` (per-options cells share the
  /// base artefacts).
  Result<measures::VersionArtefacts> Get(
      uint64_t fingerprint, const measures::ContextOptions& options,
      const Materializer& materialize);

  /// The incremental path: the bundle of `to_fingerprint` (a commit's
  /// successor of `from_fingerprint`), advancing the predecessor's
  /// computed betweenness through the affected-source frontier instead
  /// of scheduling a cold Brandes run. Falls back gracefully at every
  /// step — predecessor evicted, betweenness never forced, sampled
  /// mode, or churn past `churn_threshold` — to the plain Get
  /// behaviour, so the returned bundle is always observationally
  /// identical to Get(to_fingerprint, options, materialize_to).
  /// `advance_stats` (optional) receives the per-call frontier
  /// counters when an advance was attempted.
  Result<measures::VersionArtefacts> Refresh(
      uint64_t from_fingerprint, uint64_t to_fingerprint,
      const measures::ContextOptions& options,
      const Materializer& materialize_to, double churn_threshold,
      graph::BetweennessAdvanceStats* advance_stats = nullptr);

  ArtefactCacheStats stats() const;

  IncrementalStats incremental_stats() const;

  /// Number of resident base entries, builds in flight included.
  size_t size() const { return bases_.size(); }

  /// Drops every cached entry. Builds in flight still hand their
  /// bundles to their waiters but are not installed; handed-out
  /// bundles stay valid.
  void Clear() { bases_.Clear(); }

 private:
  using Cell = std::shared_ptr<const measures::LazyBetweenness>;

  /// One version's options-independent artefacts (`parts`, whose
  /// betweenness stays unset) and its lazy betweenness cells, keyed by
  /// ContextOptionsFingerprint.
  struct Base {
    measures::VersionArtefacts parts;
    std::mutex mu;
    std::unordered_map<uint64_t, Cell> cells;

    /// The cell installed for `options_fp`; when there is none yet,
    /// installs `install` (if non-null) and returns it.
    Cell CellOr(uint64_t options_fp, Cell install = nullptr);
  };
  using SharedBase = std::shared_ptr<Base>;

  /// `base`'s artefacts with `cell` as their betweenness.
  static measures::VersionArtefacts Bundle(const Base& base, Cell cell);

  /// The ready base artefacts of `fingerprint`, building them via
  /// `materialize` on a miss (single-flight).
  Result<SharedBase> GetBase(uint64_t fingerprint,
                             const Materializer& materialize);

  /// The cell of `base` for `options`, creating a lazy one on first
  /// request.
  Cell CellFor(uint64_t fingerprint, Base& base,
               const measures::ContextOptions& options);

  ThreadPool* pool_;
  SingleFlightCache<uint64_t, SharedBase> bases_;
  mutable std::mutex mu_;
  // The build counters (snapshot_loads, view_builds, graph_builds);
  // stats() fills in the rest.
  ArtefactCacheStats builds_;
  IncrementalStats incremental_;
  // Brandes runs are counted from inside the lazy cells, which may
  // outlive the cache (shared_ptr keeps the counter valid).
  std::shared_ptr<std::atomic<uint64_t>> betweenness_runs_;
};

}  // namespace evorec::engine

#endif  // EVOREC_ENGINE_ARTEFACT_CACHE_H_

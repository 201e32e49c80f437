#ifndef EVOREC_MEASURES_MEASURE_CONTEXT_H_
#define EVOREC_MEASURES_MEASURE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "delta/delta_index.h"
#include "delta/low_level_delta.h"
#include "graph/betweenness.h"
#include "graph/schema_graph.h"
#include "rdf/knowledge_base.h"
#include "schema/schema_view.h"
#include "version/kb_view.h"

namespace evorec::measures {

/// How structural centrality is computed inside a context.
enum class BetweennessMode {
  kExact,    ///< Brandes over all sources.
  kSampled,  ///< Pivot-sampled approximation (see pivots).
};

/// Options for EvolutionContext construction.
struct ContextOptions {
  BetweennessMode betweenness_mode = BetweennessMode::kExact;
  /// Number of pivots when betweenness_mode == kSampled.
  size_t betweenness_pivots = 64;
  /// Seed for the sampling RNG (determinism).
  uint64_t seed = 1;

  /// Equivalent options produce equivalent contexts — the equality the
  /// engine's context cache keys on. Sampling parameters only matter
  /// in kSampled mode.
  friend bool operator==(const ContextOptions& a, const ContextOptions& b) {
    if (a.betweenness_mode != b.betweenness_mode) return false;
    if (a.betweenness_mode == BetweennessMode::kExact) return true;
    return a.betweenness_pivots == b.betweenness_pivots && a.seed == b.seed;
  }
};

/// Stable 64-bit fingerprint of `options` consistent with operator==.
uint64_t ContextOptionsFingerprint(const ContextOptions& options);

/// Effective sampling seed for a context bound to one version:
/// options.seed mixed with `salt` (the engine passes the version's
/// content fingerprint, so pivot selection is a stable property of
/// the version's *content* — identical across engine instances,
/// across cold builds vs incremental refreshes, and across runs —
/// rather than one shared ad-hoc default). Salt 0 is the identity:
/// the non-engine path keeps the raw options.seed and its historical
/// outputs.
uint64_t SampledSeedFor(const ContextOptions& options, uint64_t salt);

/// Betweenness of `g` per the configured mode. `pool` (optional)
/// parallelises the Brandes passes; results are bit-identical with and
/// without it.
std::vector<double> ComputeBetweenness(const graph::Graph& g,
                                       const ContextOptions& options,
                                       ThreadPool* pool = nullptr);

/// Scatters per-class scores aligned to the sorted class list
/// `own_classes` into positions of the sorted superset
/// `union_classes` (0 for classes absent from `own_classes`). The
/// union-alignment primitive of the per-version artefact design; a
/// two-pointer merge, no hashing.
std::vector<double> ScatterToUnion(
    const std::vector<rdf::TermId>& own_classes,
    const std::vector<double>& own_scores,
    const std::vector<rdf::TermId>& union_classes);

/// A thread-safe, single-flight lazy cell for one version's raw
/// betweenness vector (indexed like its schema graph). Cells are
/// shared between every EvolutionContext that touches the version —
/// and with the engine's ArtefactCache — so a version's Brandes run
/// happens at most once no matter how many pairs include it.
class LazyBetweenness {
 public:
  /// `on_compute`, when set, fires exactly once, right before the
  /// computation actually runs (cache-stats hook). `sampling_salt`
  /// feeds SampledSeedFor in kSampled mode (0 = raw options.seed).
  LazyBetweenness(std::shared_ptr<const graph::SchemaGraph> graph,
                  ContextOptions options, ThreadPool* pool = nullptr,
                  std::function<void()> on_compute = nullptr,
                  uint64_t sampling_salt = 0);

  /// Adopts an already-advanced result (the incremental-refresh path):
  /// Get() serves `partials.scores` immediately and no pass ever runs,
  /// so `on_compute`-style counters stay untouched. kExact only —
  /// sampled cells are never advanced.
  LazyBetweenness(std::shared_ptr<const graph::SchemaGraph> graph,
                  ContextOptions options, graph::BetweennessPartials partials);

  /// The betweenness vector, computed on first call.
  const std::vector<double>& Get() const;

  /// The resumable per-chunk Brandes state, or nullptr when nothing
  /// has been computed yet or the mode is sampled (no advance path).
  /// Never forces the computation — a cell that stayed lazy stays
  /// lazy, and its successor simply starts cold too.
  const graph::BetweennessPartials* Partials() const;

  const graph::SchemaGraph& graph() const { return *graph_; }

 private:
  std::shared_ptr<const graph::SchemaGraph> graph_;
  ContextOptions options_;
  ThreadPool* pool_ = nullptr;
  std::function<void()> on_compute_;
  uint64_t sampling_salt_ = 0;
  mutable std::once_flag once_;
  mutable graph::BetweennessPartials partials_;
  mutable std::atomic<bool> ready_{false};
};

/// One version's reusable cold-path artefacts: the snapshot, its
/// schema view, the schema graph over the *version's own* class set
/// (node i is view->classes()[i]), and the lazy betweenness cell of
/// that graph. A version pair context is assembled from two of these,
/// so a version shared by several pairs — e.g. the middle versions of
/// a timeline chain walk — pays for its artefacts exactly once (see
/// engine::ArtefactCache).
struct VersionArtefacts {
  std::shared_ptr<const rdf::KnowledgeBase> snapshot;
  std::shared_ptr<const schema::SchemaView> view;
  std::shared_ptr<const graph::SchemaGraph> graph;
  std::shared_ptr<const LazyBetweenness> betweenness;
};

/// Builds the full artefact bundle for one snapshot (betweenness stays
/// lazy). `snapshot` must be non-null. `sampling_salt` is forwarded to
/// the betweenness cell (the engine passes the version fingerprint; 0
/// keeps the legacy unsalted sampling of the non-engine path).
VersionArtefacts MakeVersionArtefacts(
    std::shared_ptr<const rdf::KnowledgeBase> snapshot,
    const ContextOptions& options, ThreadPool* pool = nullptr,
    uint64_t sampling_salt = 0);

/// Everything an evolution measure needs about one version pair
/// (V1 → V2), computed once and shared by all measures:
/// both snapshots, their schema views, the low-level delta and its
/// index, per-version schema graphs, and cached betweenness for both
/// versions.
///
/// Each version's schema graph covers that version's *own* class set
/// (so it is reusable across pairs); union-universe alignment is
/// provided by the scattered accessors: betweenness_before()/_after()
/// are indexed by union_classes(), with 0 for classes absent from the
/// respective version. In kExact mode the scatter is value-identical
/// to computing over a union-universe graph (absent classes are
/// isolated nodes with betweenness 0). In kSampled mode pivots are
/// drawn from the version's own graph — a per-version sample that is
/// stable across every pair including the version, rather than the
/// pair-dependent union-universe sample of earlier revisions.
///
/// Contexts are immutable after Build and cheap to pass by const
/// reference; expensive artefacts (betweenness) are computed lazily on
/// first access. The lazy computation is thread-safe (std::call_once),
/// so one context can be shared by measures evaluating in parallel;
/// copies of a context share the same lazy cache.
class EvolutionContext {
 public:
  /// Builds a context from two snapshots that share a dictionary.
  static Result<EvolutionContext> Build(const rdf::KnowledgeBase& before,
                                        const rdf::KnowledgeBase& after,
                                        ContextOptions options = {},
                                        ThreadPool* pool = nullptr);

  /// Adopts already-owned snapshots without copying them — the engine
  /// path, which snapshots under its own lock and hands the copies
  /// over. Both pointers must be non-null and share a dictionary; the
  /// snapshots must not be mutated afterwards.
  static Result<EvolutionContext> Build(
      std::shared_ptr<const rdf::KnowledgeBase> before,
      std::shared_ptr<const rdf::KnowledgeBase> after,
      ContextOptions options = {}, ThreadPool* pool = nullptr);

  /// Assembles a context from prebuilt per-version artefact bundles
  /// (the ArtefactCache fast path): only the pair-level delta work
  /// runs; views, graphs and betweenness cells are adopted as-is.
  /// Both bundles must be fully populated, share a dictionary, and
  /// have been built with equivalent ContextOptions.
  static Result<EvolutionContext> Build(VersionArtefacts before,
                                        VersionArtefacts after,
                                        ContextOptions options = {});

  /// The incremental-refresh form: as above, but adopts an
  /// already-derived low-level delta (O(|δ|) from the commit's
  /// ChangeSet instead of an O(T) store diff) and, when `advance_from`
  /// is non-null, advances the delta index from the preceding pair's
  /// index instead of building it cold. Observationally identical to
  /// the plain bundle overload — `advance_from` must be the index of a
  /// pair whose after-version is this pair's before-version.
  static Result<EvolutionContext> Build(VersionArtefacts before,
                                        VersionArtefacts after,
                                        delta::LowLevelDelta delta,
                                        const delta::DeltaIndex* advance_from,
                                        ContextOptions options = {});

  /// Builds a context for versions (v1, v2) of `view`, over snapshots
  /// pinned with SharedSnapshot (safe beside a committer).
  static Result<EvolutionContext> FromVersions(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, ContextOptions options = {},
      ThreadPool* pool = nullptr);

  const rdf::KnowledgeBase& before() const { return *before_; }
  const rdf::KnowledgeBase& after() const { return *after_; }
  const rdf::Vocabulary& vocabulary() const { return before_->vocabulary(); }

  const schema::SchemaView& view_before() const { return *view_before_; }
  const schema::SchemaView& view_after() const { return *view_after_; }

  const delta::LowLevelDelta& low_level_delta() const { return delta_; }
  const delta::DeltaIndex& delta_index() const { return delta_index_; }

  /// Union class universe (sorted); betweenness_before()/_after()
  /// index by it.
  const std::vector<rdf::TermId>& union_classes() const {
    return delta_index_.union_classes();
  }
  const std::vector<rdf::TermId>& union_properties() const {
    return delta_index_.union_properties();
  }

  /// Schema graph of each version over that version's own class set
  /// (node i ↔ view_*().classes()[i]).
  const graph::SchemaGraph& graph_before() const { return *graph_before_; }
  const graph::SchemaGraph& graph_after() const { return *graph_after_; }

  /// Betweenness aligned to union_classes() (0 for classes absent from
  /// the version). Computed on first call, then cached.
  const std::vector<double>& betweenness_before() const;
  const std::vector<double>& betweenness_after() const;

  /// Raw betweenness indexed like graph_before()/graph_after() — the
  /// form to pair with the graphs (bridging, endpoint lookups).
  const std::vector<double>& raw_betweenness_before() const;
  const std::vector<double>& raw_betweenness_after() const;

  const ContextOptions& options() const { return options_; }

 private:
  EvolutionContext() = default;

  /// Lazily-computed union-aligned scatters, shared between copies.
  struct LazyArtefacts {
    std::once_flag before_once;
    std::once_flag after_once;
    std::vector<double> betweenness_before;
    std::vector<double> betweenness_after;
  };

  ContextOptions options_;
  // Snapshots are held by shared_ptr so that contexts remain cheap to
  // copy and valid independent of the KB they were read from.
  std::shared_ptr<const rdf::KnowledgeBase> before_;
  std::shared_ptr<const rdf::KnowledgeBase> after_;
  std::shared_ptr<const schema::SchemaView> view_before_;
  std::shared_ptr<const schema::SchemaView> view_after_;
  delta::LowLevelDelta delta_;
  delta::DeltaIndex delta_index_;
  std::shared_ptr<const graph::SchemaGraph> graph_before_;
  std::shared_ptr<const graph::SchemaGraph> graph_after_;
  std::shared_ptr<const LazyBetweenness> raw_before_;
  std::shared_ptr<const LazyBetweenness> raw_after_;
  std::shared_ptr<LazyArtefacts> lazy_;
};

}  // namespace evorec::measures

#endif  // EVOREC_MEASURES_MEASURE_CONTEXT_H_

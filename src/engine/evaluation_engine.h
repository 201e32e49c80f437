#ifndef EVOREC_ENGINE_EVALUATION_ENGINE_H_
#define EVOREC_ENGINE_EVALUATION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/single_flight.h"
#include "common/thread_pool.h"
#include "engine/artefact_cache.h"
#include "measures/evaluation.h"
#include "measures/measure_context.h"
#include "measures/registry.h"
#include "measures/timeline.h"
#include "recommend/recommender.h"
#include "version/kb_view.h"

namespace evorec::engine {

/// Cache key of one shared evaluation: the content fingerprints of
/// both snapshots plus the context options. Handles with equal
/// fingerprints denote snapshots with identical content and TermId
/// mapping (see version::SnapshotHandle), so equal keys imply
/// interchangeable contexts — including across distinct KB instances
/// with identical histories.
struct ContextKey {
  uint64_t before_fingerprint = 0;
  uint64_t after_fingerprint = 0;
  measures::ContextOptions options;

  friend bool operator==(const ContextKey& a, const ContextKey& b) {
    return a.before_fingerprint == b.before_fingerprint &&
           a.after_fingerprint == b.after_fingerprint &&
           a.options == b.options;
  }
};

struct ContextKeyHash {
  size_t operator()(const ContextKey& key) const;
};

/// Engine configuration.
struct EngineOptions {
  /// Max contexts kept warm (least-recently-used eviction).
  size_t context_cache_capacity = 16;
  /// Max per-version artefact bundles kept warm (snapshot + schema
  /// view + schema graph + betweenness). Versions are smaller than
  /// contexts and shared across pairs, so this defaults higher.
  size_t artefact_cache_capacity = 64;
  /// Worker threads for parallel measure evaluation, batched serving,
  /// and the chunked parallel Brandes passes of cold context builds;
  /// 0 means ThreadPool::DefaultThreadCount().
  size_t threads = 0;
  /// Incremental-refresh fallback knob: when a commit's affected-source
  /// frontier exceeds this fraction of the schema graph, Refresh runs a
  /// full Brandes recompute instead of advancing (advancing would do
  /// comparable work with extra bookkeeping). Results are bit-identical
  /// either way — deliberately an EngineOptions field, not a
  /// ContextOptions one, so it never enters a cache key.
  double refresh_churn_threshold = 0.5;
};

/// Counters exposing the engine's cache behaviour. "Redundant context
/// builds" are exactly `contexts_built - distinct keys requested`:
/// serving any number of users over one warm pair must keep
/// contexts_built at 1.
struct EngineStats {
  uint64_t context_hits = 0;       ///< served from the LRU cache
  uint64_t context_misses = 0;     ///< triggered a build
  uint64_t contexts_built = 0;     ///< EvolutionContext::Build actually ran
  uint64_t context_coalesced = 0;  ///< joined a concurrent in-flight build
  uint64_t context_evictions = 0;  ///< LRU evictions, in-flight builds too
  uint64_t contexts_refreshed = 0; ///< built via the incremental path
};

/// One cached evaluation unit: the shared EvolutionContext of a
/// version pair plus the memo of everything derived from it — measure
/// reports (per name, single-flight) and the recommender's shared run
/// state (per pipeline configuration). Immutable from the caller's
/// perspective; all lazy state is thread-safe. Handed out as
/// shared_ptr<const>, so it survives cache eviction while in use —
/// but it borrows the owning engine's registry and thread pool, so it
/// must not outlive the EvaluationEngine that produced it.
class SharedEvaluation {
 public:
  explicit SharedEvaluation(measures::EvolutionContext ctx,
                            const measures::MeasureRegistry& registry,
                            ThreadPool* pool);

  const measures::EvolutionContext& context() const { return ctx_; }

  /// Memoized report of the registered measure `name` over this
  /// context.
  Result<std::shared_ptr<const measures::MeasureReport>> Report(
      std::string_view name) const;

  /// Memoized reports of every registered measure (registration
  /// order), evaluating uncached ones — in parallel when the engine
  /// has a pool.
  Result<std::vector<std::shared_ptr<const measures::MeasureReport>>>
  AllReports() const;

  /// Memoized user-independent run state of `rec` (candidate pool,
  /// pre-normalised reports, diversity distance matrix) over this
  /// context, built from the memoized reports. Keyed by everything the
  /// state depends on — the recommender's registry, its candidate
  /// options, and its diversity kind — single-flight.
  Result<std::shared_ptr<const recommend::SharedRunState>> SharedStateFor(
      const recommend::Recommender& rec) const;

  measures::ReportCacheStats report_stats() const;

 private:
  using SharedState = std::shared_ptr<const recommend::SharedRunState>;

  /// Everything a SharedRunState's content depends on.
  struct StateKey {
    const measures::MeasureRegistry* registry = nullptr;
    size_t top_k = 0;
    bool per_region = false;
    size_t max_regions = 0;
    recommend::DiversityKind diversity = recommend::DiversityKind::kContent;

    friend bool operator==(const StateKey&, const StateKey&) = default;
  };
  struct StateKeyHash {
    size_t operator()(const StateKey& key) const;
  };

  measures::EvolutionContext ctx_;
  const measures::MeasureRegistry& registry_;
  ThreadPool* pool_;
  mutable measures::ReportCache reports_;
  mutable SingleFlightCache<StateKey, SharedState, StateKeyHash> states_;
};

/// The shared evaluation engine: owns an LRU cache of
/// SharedEvaluations keyed by (before, after, options) and the thread
/// pool driving parallel work. Thread-safe; concurrent requests for
/// the same missing key coalesce into one build (a SingleFlightCache,
/// with its LRU and failure policy).
///
/// Every entry point takes the KB as a version::KbView, which guards
/// its own state (see its thread-safety contract), so the engine holds
/// no lock of its own around KB calls. Any number of engines may serve
/// one KB concurrently with one committer; commits that should warm
/// an engine's caches go through its CommitAndRefresh.
class EvaluationEngine {
 public:
  /// `registry` must outlive the engine.
  explicit EvaluationEngine(const measures::MeasureRegistry& registry,
                            EngineOptions options = {});

  /// The shared evaluation of versions (v1, v2) of `view`, built on
  /// first request and cached under its snapshot fingerprints. The
  /// returned evaluation stays valid across eviction but must be
  /// dropped before the engine is destroyed. `view` only needs to live
  /// for the duration of the call (builds run synchronously on the
  /// calling thread).
  Result<std::shared_ptr<const SharedEvaluation>> Evaluate(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, measures::ContextOptions context_options = {});

  /// Outcome of an incremental refresh: the version refreshed to and
  /// the (now cached) shared evaluation of its head transition.
  struct RefreshResult {
    version::VersionId version = 0;
    std::shared_ptr<const SharedEvaluation> evaluation;
  };

  /// Incrementally refreshes the caches to `view`'s current head: the
  /// head version's artefacts advance from its predecessor's (the
  /// betweenness update re-runs only chunks the commit's
  /// affected-source frontier reaches; see refresh_churn_threshold),
  /// the pair delta derives from the commit's archived ChangeSet in
  /// O(|δ|), and the delta index advances from the preceding pair's
  /// when it is warm. The resulting (head−1, head) evaluation is
  /// cached under the same key — and is bit-identical to the one
  /// Evaluate would have built cold.
  Result<RefreshResult> Refresh(const version::KbView& view,
                                measures::ContextOptions context_options = {});

  /// The serving loop's write path: commits `changes` to `view` and
  /// refreshes in one step. Safe to call while other threads serve
  /// requests over the same view — one committer at a time; the
  /// view's own publish point is the only synchronisation between the
  /// commit and in-flight reads.
  Result<RefreshResult> CommitAndRefresh(
      version::KbView& view, version::ChangeSet changes, std::string author,
      std::string message, uint64_t timestamp = 0,
      measures::ContextOptions context_options = {});

  /// The most recent successful Refresh/CommitAndRefresh outcome,
  /// pinned independently of cache eviction — the stale-but-consistent
  /// state the service serves (flagged) while a failed commit has it
  /// in the DEGRADED health state. Empty until the first refresh.
  std::optional<RefreshResult> LastGoodRefresh() const;

  /// The timeline of the registered measure `measure` over every
  /// consecutive version pair of `view` in [first, last] — the fast
  /// cold chain walk: every context is served through the engine's
  /// caches, so each version's snapshot, schema view, schema graph
  /// and betweenness are built exactly once (K builds for a K-version
  /// chain; the pair-keyed EvolutionTimeline::Compute performs
  /// 2·(K−1)), and reports of already-warm transitions are reused
  /// outright.
  Result<measures::EvolutionTimeline> Timeline(
      const version::KbView& view, std::string_view measure,
      version::VersionId first = 0, version::VersionId last = UINT32_MAX,
      measures::ContextOptions context_options = {});

  /// Drops every cached evaluation and artefact. Builds in flight
  /// still hand their results to their waiters but are not installed;
  /// handed-out evaluations stay valid.
  void Clear();

  EngineStats stats() const;
  ArtefactCacheStats artefact_stats() const { return artefacts_.stats(); }
  IncrementalStats incremental_stats() const {
    return artefacts_.incremental_stats();
  }
  /// Number of cached evaluations, builds in flight included.
  size_t cached_contexts() const { return contexts_.size(); }
  ThreadPool& pool() { return pool_; }
  const measures::MeasureRegistry& registry() const { return registry_; }
  const EngineOptions& options() const { return options_; }

 private:
  using SharedEval = std::shared_ptr<const SharedEvaluation>;

  /// The context cache lookup of Evaluate and Refresh: serves `key`
  /// ready or in flight, otherwise runs `build_context()` (a
  /// Result<measures::EvolutionContext>, built outside every engine
  /// lock) and caches the evaluation. `refreshed` marks builds that
  /// took the incremental path (for EngineStats::contexts_refreshed).
  template <typename BuildContext>
  Result<SharedEval> GetOrBuild(const ContextKey& key,
                                const BuildContext& build_context,
                                bool refreshed);

  /// The artefact bundles of one pair build, `before` and `after` of
  /// `view`, from the artefact cache — `after`'s advanced
  /// incrementally from `before`'s when `advance` is set (Refresh).
  /// Rebuilt cold when the two stem from distinct KB instances.
  Result<std::pair<measures::VersionArtefacts, measures::VersionArtefacts>>
  PairArtefacts(const version::KbView& view,
                const version::SnapshotHandle& before,
                const version::SnapshotHandle& after,
                const measures::ContextOptions& options, bool advance);

  const measures::MeasureRegistry& registry_;
  EngineOptions options_;
  ThreadPool pool_;
  // Per-version artefacts shared across pair contexts (keyed by
  // snapshot content fingerprint, not pair).
  ArtefactCache artefacts_;

  SingleFlightCache<ContextKey, SharedEval, ContextKeyHash> contexts_;

  mutable std::mutex mu_;
  // The build counters (contexts_built, contexts_refreshed); stats()
  // fills in the rest.
  EngineStats builds_;
  /// Last successful refresh, pinned for degraded-mode serving.
  std::optional<RefreshResult> last_good_;
};

}  // namespace evorec::engine

#endif  // EVOREC_ENGINE_EVALUATION_ENGINE_H_

#include "engine/evaluation_engine.h"

#include <algorithm>
#include <string>

#include "common/hash.h"

namespace evorec::engine {

size_t ContextKeyHash::operator()(const ContextKey& key) const {
  size_t seed = 0;
  HashCombine(seed, key.before_fingerprint);
  HashCombine(seed, key.after_fingerprint);
  HashCombine(seed, measures::ContextOptionsFingerprint(key.options));
  return seed;
}

SharedEvaluation::SharedEvaluation(measures::EvolutionContext ctx,
                                   const measures::MeasureRegistry& registry,
                                   ThreadPool* pool)
    : ctx_(std::move(ctx)), registry_(registry), pool_(pool) {}

Result<std::shared_ptr<const measures::MeasureReport>>
SharedEvaluation::Report(std::string_view name) const {
  if (auto cached = reports_.Peek(std::string(name))) return *cached;
  auto measure = registry_.Create(name);
  if (!measure.ok()) return measure.status();
  return measures::CachedReport(reports_, **measure, ctx_);
}

Result<std::vector<std::shared_ptr<const measures::MeasureReport>>>
SharedEvaluation::AllReports() const {
  return measures::EvaluateAll(registry_, ctx_, reports_, pool_);
}

measures::ReportCacheStats SharedEvaluation::report_stats() const {
  const SingleFlightStats flights = reports_.stats();
  return {flights.hits, flights.misses, flights.coalesced};
}

size_t SharedEvaluation::StateKeyHash::operator()(const StateKey& key) const {
  size_t seed = 0;
  HashCombine(seed, static_cast<const void*>(key.registry));
  HashCombine(seed, key.top_k);
  HashCombine(seed, key.per_region);
  HashCombine(seed, key.max_regions);
  HashCombine(seed, static_cast<int>(key.diversity));
  return seed;
}

Result<std::shared_ptr<const recommend::SharedRunState>>
SharedEvaluation::SharedStateFor(const recommend::Recommender& rec) const {
  // The state's content depends on the measure set (the recommender's
  // registry), the candidate options, and the diversity kind (which
  // selects the distance matrix).
  const recommend::CandidateOptions& copts = rec.options().candidates;
  const StateKey key{&rec.registry(), copts.top_k, copts.per_region,
                     copts.max_regions, rec.options().diversity};

  return states_.GetOrBuild(key, [&]() -> Result<SharedState> {
    // The memoized reports cover the engine's registry; a recommender
    // drawing from a different registry computes its own pool directly.
    Result<recommend::SharedRunState> prepared =
        InternalError("shared state not prepared");
    if (&rec.registry() == &registry_) {
      auto reports = AllReports();
      if (!reports.ok()) return reports.status();
      prepared = rec.PrepareShared(ctx_, registry_.List(),
                                   std::move(reports).value());
    } else {
      prepared = rec.PrepareShared(ctx_);
    }
    if (!prepared.ok()) return prepared.status();
    return std::make_shared<const recommend::SharedRunState>(
        std::move(prepared).value());
  });
}

EvaluationEngine::EvaluationEngine(const measures::MeasureRegistry& registry,
                                   EngineOptions options)
    : registry_(registry),
      options_(options),
      pool_(options.threads),
      artefacts_(options.artefact_cache_capacity, &pool_),
      contexts_(std::max<size_t>(options.context_cache_capacity, 1)) {
  if (options_.context_cache_capacity == 0) {
    options_.context_cache_capacity = 1;
  }
}

template <typename BuildContext>
Result<EvaluationEngine::SharedEval> EvaluationEngine::GetOrBuild(
    const ContextKey& key, const BuildContext& build_context, bool refreshed) {
  return contexts_.GetOrBuild(key, [&]() -> Result<SharedEval> {
    Result<measures::EvolutionContext> ctx = build_context();
    if (!ctx.ok()) return ctx.status();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++builds_.contexts_built;
      if (refreshed) ++builds_.contexts_refreshed;
    }
    return std::make_shared<const SharedEvaluation>(std::move(ctx).value(),
                                                    registry_, &pool_);
  });
}

Result<std::shared_ptr<const SharedEvaluation>> EvaluationEngine::Evaluate(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    measures::ContextOptions context_options) {
  auto before = view.Handle(v1);
  if (!before.ok()) return before.status();
  auto after = view.Handle(v2);
  if (!after.ok()) return after.status();
  const ContextKey key{before->fingerprint, after->fingerprint,
                       context_options};

  // Per-version artefacts come from the artefact cache (keyed by
  // snapshot fingerprint): a version shared with any previously built
  // pair contributes its snapshot copy, schema view, schema graph and
  // betweenness for free, and only the pair-level delta work runs
  // here. Everything runs outside the engine lock, so other keys stay
  // servable meanwhile and same-key callers wait on the in-flight
  // future.
  const auto build = [&]() -> Result<measures::EvolutionContext> {
    auto pair = PairArtefacts(view, *before, *after, context_options,
                              /*advance=*/false);
    if (!pair.ok()) return pair.status();
    return measures::EvolutionContext::Build(std::move(pair->first),
                                             std::move(pair->second),
                                             context_options);
  };
  return GetOrBuild(key, build, /*refreshed=*/false);
}

Result<std::pair<measures::VersionArtefacts, measures::VersionArtefacts>>
EvaluationEngine::PairArtefacts(const version::KbView& view,
                                const version::SnapshotHandle& before,
                                const version::SnapshotHandle& after,
                                const measures::ContextOptions& options,
                                bool advance) {
  const auto materialize = [&view](version::VersionId v) {
    return [&view, v] { return view.SharedSnapshot(v); };
  };
  auto before_art =
      artefacts_.Get(before.fingerprint, options, materialize(before.id));
  if (!before_art.ok()) return before_art.status();
  auto after_art =
      advance ? artefacts_.Refresh(before.fingerprint, after.fingerprint,
                                   options, materialize(after.id),
                                   options_.refresh_churn_threshold)
              : artefacts_.Get(after.fingerprint, options,
                               materialize(after.id));
  if (!after_art.ok()) return after_art.status();
  if (before_art->snapshot->shared_dictionary() !=
      after_art->snapshot->shared_dictionary()) {
    // Fingerprint-equal versions of *distinct* KB instances (identical
    // histories, e.g. a restored replica) carry identical TermId
    // mappings but distinct Dictionary objects, so a cached artefact
    // from one instance cannot pair with a freshly materialised one
    // from the other. Rebuild both sides cold from the caller's view —
    // correct, just uncached, and nothing from the twin is advanced —
    // rather than failing the request.
    const auto rebuild = [&](const version::SnapshotHandle& handle)
        -> Result<measures::VersionArtefacts> {
      auto snapshot = view.SharedSnapshot(handle.id);
      if (!snapshot.ok()) return snapshot.status();
      return measures::MakeVersionArtefacts(
          std::move(*snapshot), options, &pool_,
          /*sampling_salt=*/handle.fingerprint);
    };
    before_art = rebuild(before);
    if (!before_art.ok()) return before_art.status();
    after_art = rebuild(after);
    if (!after_art.ok()) return after_art.status();
  }
  return std::make_pair(std::move(*before_art), std::move(*after_art));
}

Result<EvaluationEngine::RefreshResult> EvaluationEngine::Refresh(
    const version::KbView& view, measures::ContextOptions context_options) {
  const version::VersionId head = view.head();
  if (head == 0) {
    return FailedPreconditionError(
        "refresh needs at least one committed version");
  }
  auto changes = view.Changes(head);
  if (!changes.ok()) return changes.status();
  auto prev = view.Handle(head - 1);
  if (!prev.ok()) return prev.status();
  auto curr = view.Handle(head);
  if (!curr.ok()) return curr.status();
  // The preceding pair's "before" side, when there is one: its warm
  // evaluation lends the build a delta index to advance from.
  auto prev_prev = head >= 2 ? view.Handle(head - 2)
                             : Result<version::SnapshotHandle>(
                                   NotFoundError("no preceding pair"));
  const ContextKey key{prev->fingerprint, curr->fingerprint, context_options};

  const auto build = [&]() -> Result<measures::EvolutionContext> {
    auto pair = PairArtefacts(view, *prev, *curr, context_options,
                              /*advance=*/true);
    if (!pair.ok()) return pair.status();
    // O(|δ|): the pair delta comes from the commit's archived change
    // set via membership probes, not an O(T) store diff.
    delta::LowLevelDelta delta =
        delta::DeltaFromCandidates(*pair->first.snapshot, *changes);
    // Keep the preceding evaluation alive across the build.
    SharedEval preceding;
    if (prev_prev.ok()) {
      preceding = contexts_
                      .Peek(ContextKey{prev_prev->fingerprint,
                                       prev->fingerprint, context_options})
                      .value_or(nullptr);
    }
    return measures::EvolutionContext::Build(
        std::move(pair->first), std::move(pair->second), std::move(delta),
        preceding != nullptr ? &preceding->context().delta_index() : nullptr,
        context_options);
  };
  auto evaluation = GetOrBuild(key, build, /*refreshed=*/true);
  if (!evaluation.ok()) return evaluation.status();
  RefreshResult result{head, std::move(evaluation).value()};
  {
    // Pin the refresh as the last-good serving state: if a later
    // commit fails, the service keeps answering from this evaluation
    // (flagged degraded) until a commit succeeds again.
    std::lock_guard<std::mutex> lock(mu_);
    last_good_ = result;
  }
  return result;
}

std::optional<EvaluationEngine::RefreshResult>
EvaluationEngine::LastGoodRefresh() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_good_;
}

Result<EvaluationEngine::RefreshResult> EvaluationEngine::CommitAndRefresh(
    version::KbView& view, version::ChangeSet changes, std::string author,
    std::string message, uint64_t timestamp,
    measures::ContextOptions context_options) {
  auto committed = view.Commit(std::move(changes), std::move(author),
                               std::move(message), timestamp);
  if (!committed.ok()) return committed.status();
  return Refresh(view, context_options);
}

Result<measures::EvolutionTimeline> EvaluationEngine::Timeline(
    const version::KbView& view, std::string_view measure,
    version::VersionId first, version::VersionId last,
    measures::ContextOptions context_options) {
  const version::VersionId head = view.head();
  if (head == 0) {
    return FailedPreconditionError("timeline needs at least two versions");
  }
  const version::VersionId end = std::min(last, head);
  if (first >= end) {
    return InvalidArgumentError("empty version range for timeline");
  }
  std::vector<measures::MeasureReport> reports;
  reports.reserve(end - first);
  for (version::VersionId v = first; v < end; ++v) {
    auto evaluation = Evaluate(view, v, v + 1, context_options);
    if (!evaluation.ok()) return evaluation.status();
    auto report = (*evaluation)->Report(measure);
    if (!report.ok()) return report.status();
    reports.push_back(**report);
  }
  return measures::EvolutionTimeline::FromReports(std::move(reports));
}

void EvaluationEngine::Clear() {
  artefacts_.Clear();
  contexts_.Clear();
}

EngineStats EvaluationEngine::stats() const {
  const SingleFlightStats flights = contexts_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats out = builds_;
  out.context_hits = flights.hits;
  out.context_misses = flights.misses;
  out.context_coalesced = flights.coalesced;
  out.context_evictions = flights.evictions;
  return out;
}

}  // namespace evorec::engine

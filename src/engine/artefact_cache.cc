#include "engine/artefact_cache.h"

#include <utility>

namespace evorec::engine {

ArtefactCache::ArtefactCache(size_t capacity, ThreadPool* pool)
    : pool_(pool),
      bases_(capacity == 0 ? 1 : capacity),
      betweenness_runs_(std::make_shared<std::atomic<uint64_t>>(0)) {}

ArtefactCache::Cell ArtefactCache::Base::CellOr(uint64_t options_fp,
                                                Cell install) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = cells.find(options_fp);
  if (it != cells.end()) return it->second;
  if (install != nullptr) cells.emplace(options_fp, install);
  return install;
}

measures::VersionArtefacts ArtefactCache::Bundle(const Base& base,
                                                 Cell cell) {
  measures::VersionArtefacts artefacts = base.parts;
  artefacts.betweenness = std::move(cell);
  return artefacts;
}

Result<measures::VersionArtefacts> ArtefactCache::Get(
    uint64_t fingerprint, const measures::ContextOptions& options,
    const Materializer& materialize) {
  Result<SharedBase> base = GetBase(fingerprint, materialize);
  if (!base.ok()) return base.status();
  return Bundle(**base, CellFor(fingerprint, **base, options));
}

Result<ArtefactCache::SharedBase> ArtefactCache::GetBase(
    uint64_t fingerprint, const Materializer& materialize) {
  return bases_.GetOrBuild(fingerprint, [&]() -> Result<SharedBase> {
    auto snapshot = materialize();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++builds_.snapshot_loads;
    }
    if (!snapshot.ok()) return snapshot.status();
    if (*snapshot == nullptr) {
      return InvalidArgumentError(
          "artefact materializer returned a null snapshot");
    }
    auto base = std::make_shared<Base>();
    base->parts = measures::MakeVersionArtefacts(std::move(*snapshot), {});
    base->parts.betweenness = nullptr;  // cells are per options: CellFor
    std::lock_guard<std::mutex> lock(mu_);
    ++builds_.view_builds;
    ++builds_.graph_builds;
    return base;
  });
}

Result<measures::VersionArtefacts> ArtefactCache::Refresh(
    uint64_t from_fingerprint, uint64_t to_fingerprint,
    const measures::ContextOptions& options, const Materializer& materialize_to,
    double churn_threshold, graph::BetweennessAdvanceStats* advance_stats) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++incremental_.refreshes;
  }
  // Capture the predecessor's state first (it may be evicted by the
  // successor's insertion below — capacity 1 still advances).
  const uint64_t options_fp = measures::ContextOptionsFingerprint(options);
  const SharedBase old_base = bases_.Peek(from_fingerprint).value_or(nullptr);
  const Cell old_cell =
      old_base != nullptr ? old_base->CellOr(options_fp) : nullptr;

  Result<SharedBase> base = GetBase(to_fingerprint, materialize_to);
  if (!base.ok()) return base.status();
  Base& to = **base;

  // Reuse a cell someone already installed for this (version, options)
  // — it is either the advance below from a racing refresh, or an
  // ordinary lazy cell; both are observationally identical.
  if (Cell cell = to.CellOr(options_fp)) return Bundle(to, std::move(cell));

  const graph::BetweennessPartials* previous =
      old_cell != nullptr ? old_cell->Partials() : nullptr;
  if (previous == nullptr) {
    // Nothing to advance from (predecessor cold, evicted, or sampled
    // mode): the successor starts lazy, exactly like a Get.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++incremental_.stayed_lazy;
    }
    return Bundle(to, CellFor(to_fingerprint, to, options));
  }

  graph::BetweennessAdvanceStats stats;
  graph::BetweennessPartials advanced = graph::BetweennessAdvance(
      old_base->parts.graph->graph(), *previous, to.parts.graph->graph(),
      churn_threshold, &stats, pool_);
  if (advance_stats != nullptr) *advance_stats = stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.incremental ? ++incremental_.advanced
                      : ++incremental_.full_recomputes;
    incremental_.touched_nodes += stats.touched_nodes;
    incremental_.affected_sources += stats.affected_sources;
    incremental_.recomputed_sources += stats.recomputed_sources;
    incremental_.total_sources += to.parts.graph->graph().node_count();
  }
  if (!stats.incremental) {
    // The fallback inside the advance IS a full Brandes run — keep
    // the headline counter honest.
    betweenness_runs_->fetch_add(1, std::memory_order_relaxed);
  }
  // A racer's cell may have won meanwhile; results are identical.
  Cell cell = std::make_shared<const measures::LazyBetweenness>(
      to.parts.graph, options, std::move(advanced));
  return Bundle(to, to.CellOr(options_fp, std::move(cell)));
}

ArtefactCache::Cell ArtefactCache::CellFor(
    uint64_t fingerprint, Base& base, const measures::ContextOptions& options) {
  const uint64_t options_fp = measures::ContextOptionsFingerprint(options);
  if (Cell cell = base.CellOr(options_fp)) return cell;
  auto counter = betweenness_runs_;
  // The version fingerprint salts sampled-mode pivot selection: the
  // sample becomes a stable property of the version's content, so
  // sampled results agree across engine instances, restarts, and
  // incremental vs cold rebuilds.
  return base.CellOr(
      options_fp,
      std::make_shared<const measures::LazyBetweenness>(
          base.parts.graph, options, pool_,
          [counter] { counter->fetch_add(1, std::memory_order_relaxed); },
          /*sampling_salt=*/fingerprint));
}

ArtefactCacheStats ArtefactCache::stats() const {
  const SingleFlightStats flights = bases_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  ArtefactCacheStats out = builds_;
  out.hits = flights.hits;
  out.misses = flights.misses;
  out.coalesced = flights.coalesced;
  out.evictions = flights.evictions;
  out.betweenness_runs = betweenness_runs_->load(std::memory_order_relaxed);
  return out;
}

IncrementalStats ArtefactCache::incremental_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incremental_;
}

}  // namespace evorec::engine

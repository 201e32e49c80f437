#include "measures/measure_context.h"

#include <utility>

#include "common/hash.h"
#include "graph/betweenness.h"

namespace evorec::measures {

uint64_t ContextOptionsFingerprint(const ContextOptions& options) {
  size_t seed = 0;
  HashCombine(seed, static_cast<int>(options.betweenness_mode));
  if (options.betweenness_mode == BetweennessMode::kSampled) {
    HashCombine(seed, options.betweenness_pivots);
    HashCombine(seed, options.seed);
  }
  return static_cast<uint64_t>(seed);
}

uint64_t SampledSeedFor(const ContextOptions& options, uint64_t salt) {
  if (salt == 0) return options.seed;
  size_t seed = 0;
  HashCombine(seed, options.seed);
  HashCombine(seed, salt);
  return static_cast<uint64_t>(seed);
}

std::vector<double> ComputeBetweenness(const graph::Graph& g,
                                       const ContextOptions& options,
                                       ThreadPool* pool) {
  if (options.betweenness_mode == BetweennessMode::kExact) {
    return graph::BetweennessExact(g, pool);
  }
  Rng rng(options.seed);
  return graph::BetweennessSampled(g, options.betweenness_pivots, rng, pool);
}

LazyBetweenness::LazyBetweenness(
    std::shared_ptr<const graph::SchemaGraph> graph, ContextOptions options,
    ThreadPool* pool, std::function<void()> on_compute, uint64_t sampling_salt)
    : graph_(std::move(graph)),
      options_(options),
      pool_(pool),
      on_compute_(std::move(on_compute)),
      sampling_salt_(sampling_salt) {}

LazyBetweenness::LazyBetweenness(
    std::shared_ptr<const graph::SchemaGraph> graph, ContextOptions options,
    graph::BetweennessPartials partials)
    : graph_(std::move(graph)), options_(options) {
  partials_ = std::move(partials);
  ready_.store(true, std::memory_order_release);
}

const std::vector<double>& LazyBetweenness::Get() const {
  std::call_once(once_, [&] {
    // Pre-seeded by the advance path — nothing to compute.
    if (ready_.load(std::memory_order_acquire)) return;
    if (on_compute_) on_compute_();
    if (options_.betweenness_mode == BetweennessMode::kExact) {
      // Capture the per-chunk partials so a later commit can advance
      // this cell instead of starting over.
      partials_ = graph::BetweennessExactWithPartials(graph_->graph(), pool_);
    } else {
      ContextOptions salted = options_;
      salted.seed = SampledSeedFor(options_, sampling_salt_);
      partials_.scores = ComputeBetweenness(graph_->graph(), salted, pool_);
    }
    ready_.store(true, std::memory_order_release);
  });
  return partials_.scores;
}

const graph::BetweennessPartials* LazyBetweenness::Partials() const {
  if (options_.betweenness_mode != BetweennessMode::kExact) return nullptr;
  if (!ready_.load(std::memory_order_acquire)) return nullptr;
  return &partials_;
}

VersionArtefacts MakeVersionArtefacts(
    std::shared_ptr<const rdf::KnowledgeBase> snapshot,
    const ContextOptions& options, ThreadPool* pool, uint64_t sampling_salt) {
  VersionArtefacts artefacts;
  artefacts.snapshot = std::move(snapshot);
  artefacts.view = std::make_shared<const schema::SchemaView>(
      schema::SchemaView::Build(*artefacts.snapshot));
  artefacts.graph = std::make_shared<const graph::SchemaGraph>(
      graph::SchemaGraph::Build(*artefacts.view,
                                artefacts.view->classes()));
  artefacts.betweenness = std::make_shared<const LazyBetweenness>(
      artefacts.graph, options, pool, nullptr, sampling_salt);
  return artefacts;
}

Result<EvolutionContext> EvolutionContext::Build(
    const rdf::KnowledgeBase& before, const rdf::KnowledgeBase& after,
    ContextOptions options, ThreadPool* pool) {
  return Build(std::make_shared<const rdf::KnowledgeBase>(before),
               std::make_shared<const rdf::KnowledgeBase>(after), options,
               pool);
}

Result<EvolutionContext> EvolutionContext::Build(
    std::shared_ptr<const rdf::KnowledgeBase> before,
    std::shared_ptr<const rdf::KnowledgeBase> after, ContextOptions options,
    ThreadPool* pool) {
  if (before == nullptr || after == nullptr) {
    return InvalidArgumentError("EvolutionContext requires two snapshots");
  }
  return Build(MakeVersionArtefacts(std::move(before), options, pool),
               MakeVersionArtefacts(std::move(after), options, pool),
               options);
}

Result<EvolutionContext> EvolutionContext::Build(VersionArtefacts before,
                                                 VersionArtefacts after,
                                                 ContextOptions options) {
  if (before.snapshot == nullptr || after.snapshot == nullptr) {
    return InvalidArgumentError(
        "EvolutionContext requires fully populated artefact bundles");
  }
  delta::LowLevelDelta delta =
      delta::ComputeLowLevelDelta(*before.snapshot, *after.snapshot);
  return Build(std::move(before), std::move(after), std::move(delta),
               /*advance_from=*/nullptr, options);
}

Result<EvolutionContext> EvolutionContext::Build(
    VersionArtefacts before, VersionArtefacts after,
    delta::LowLevelDelta delta, const delta::DeltaIndex* advance_from,
    ContextOptions options) {
  if (before.snapshot == nullptr || before.view == nullptr ||
      before.graph == nullptr || before.betweenness == nullptr ||
      after.snapshot == nullptr || after.view == nullptr ||
      after.graph == nullptr || after.betweenness == nullptr) {
    return InvalidArgumentError(
        "EvolutionContext requires fully populated artefact bundles");
  }
  if (before.snapshot->shared_dictionary() !=
      after.snapshot->shared_dictionary()) {
    return InvalidArgumentError(
        "EvolutionContext requires snapshots sharing one dictionary");
  }
  EvolutionContext ctx;
  ctx.options_ = options;
  ctx.before_ = std::move(before.snapshot);
  ctx.after_ = std::move(after.snapshot);
  ctx.view_before_ = std::move(before.view);
  ctx.view_after_ = std::move(after.view);
  ctx.graph_before_ = std::move(before.graph);
  ctx.graph_after_ = std::move(after.graph);
  ctx.raw_before_ = std::move(before.betweenness);
  ctx.raw_after_ = std::move(after.betweenness);
  ctx.delta_ = std::move(delta);
  // Deferred-neighborhood build: a context whose measures never touch
  // neighborhoods (e.g. a betweenness-only chain walk) skips the
  // per-class neighborhood unions entirely.
  ctx.delta_index_ =
      advance_from != nullptr
          ? delta::DeltaIndex::Advance(*advance_from, ctx.delta_,
                                       ctx.view_before_, ctx.view_after_,
                                       ctx.before_->vocabulary())
          : delta::DeltaIndex::Build(ctx.delta_, ctx.view_before_,
                                     ctx.view_after_,
                                     ctx.before_->vocabulary());
  ctx.lazy_ = std::make_shared<LazyArtefacts>();
  return ctx;
}

Result<EvolutionContext> EvolutionContext::FromVersions(
    const version::KbView& view, version::VersionId v1,
    version::VersionId v2, ContextOptions options, ThreadPool* pool) {
  auto before = view.SharedSnapshot(v1);
  if (!before.ok()) return before.status();
  auto after = view.SharedSnapshot(v2);
  if (!after.ok()) return after.status();
  return Build(std::move(before).value(), std::move(after).value(), options,
               pool);
}

std::vector<double> ScatterToUnion(
    const std::vector<rdf::TermId>& own_classes,
    const std::vector<double>& own_scores,
    const std::vector<rdf::TermId>& union_classes) {
  std::vector<double> out(union_classes.size(), 0.0);
  size_t j = 0;
  for (size_t i = 0; i < union_classes.size(); ++i) {
    while (j < own_classes.size() && own_classes[j] < union_classes[i]) ++j;
    if (j < own_classes.size() && own_classes[j] == union_classes[i]) {
      out[i] = own_scores[j];
    }
  }
  return out;
}

const std::vector<double>& EvolutionContext::betweenness_before() const {
  std::call_once(lazy_->before_once, [&] {
    lazy_->betweenness_before = ScatterToUnion(
        graph_before_->classes(), raw_before_->Get(), union_classes());
  });
  return lazy_->betweenness_before;
}

const std::vector<double>& EvolutionContext::betweenness_after() const {
  std::call_once(lazy_->after_once, [&] {
    lazy_->betweenness_after = ScatterToUnion(
        graph_after_->classes(), raw_after_->Get(), union_classes());
  });
  return lazy_->betweenness_after;
}

const std::vector<double>& EvolutionContext::raw_betweenness_before() const {
  return raw_before_->Get();
}

const std::vector<double>& EvolutionContext::raw_betweenness_after() const {
  return raw_after_->Get();
}

}  // namespace evorec::measures

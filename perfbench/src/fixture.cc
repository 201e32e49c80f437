#include "fixture.h"

#include <utility>

namespace evorec::perfbench {
namespace {

using workload::StreamMode;

constexpr WorkloadSpec kWorkloads[] = {
    {"hot_reads", WorkloadKind::kHotReads, 2, StreamMode::kZipfReads, 256,
     32, 3, 100'000},
    {"live_feed", WorkloadKind::kLiveFeed, 2, StreamMode::kAdversarialChurn,
     512, 64, 0, 0},
    {"history_scan", WorkloadKind::kHistoryScan, 95, StreamMode::kZipfReads,
     256, 32, 4, 250'000},
};

// Read picks generated per run; clients cycle through them.
constexpr size_t kPicks = 8192;

workload::ScenarioScale Scale(const WorkloadSpec& spec) {
  workload::ScenarioScale scale;
  scale.classes = 200;
  scale.properties = 66;
  scale.instances = 8000;
  scale.edges = 16000;
  scale.versions = spec.history;
  scale.operations = 300;
  return scale;
}

workload::StreamOptions StreamFor(const WorkloadSpec& spec, uint64_t seed) {
  workload::StreamOptions options;
  options.mode = spec.mode;
  options.reads = spec.kind == WorkloadKind::kHotReads ? kPicks : 0;
  options.commits = spec.commit_pool;
  options.population = spec.population;
  options.ops_per_commit = 12;
  options.flap_block = 10;
  options.historical_fraction = 0.0;
  options.seed = seed * 1000003 + 17;
  return options;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

engine::ServiceOptions ServingOptions() {
  engine::ServiceOptions options;
  options.recommender.record_seen = false;
  options.engine.threads = 4;
  options.parallel_batches = true;
  options.overload.admission_enabled = true;
  options.overload.admission.max_in_flight = 64;
  options.overload.admission.priority_reserve = 8;
  return options;
}

engine::ServiceOptions OracleOptions() {
  engine::ServiceOptions options;
  options.recommender.record_seen = false;
  options.engine.threads = 1;
  options.parallel_batches = false;
  return options;
}

version::ChangeSet CommitPayload(const Fixture& fx, size_t j) {
  const size_t n = fx.commits.size();
  const size_t pos = j % n;
  if ((j / n) % 2 == 0) return *fx.commits[pos];
  const version::ChangeSet& forward = *fx.commits[n - 1 - pos];
  version::ChangeSet inverse;
  inverse.additions = forward.removals;
  inverse.removals = forward.additions;
  return inverse;
}

Result<std::unique_ptr<Fixture>> SetUp(const WorkloadSpec& spec,
                                       uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->spec = &spec;
  fx->registry = measures::DefaultRegistry();

  fx->scenario = workload::MakeDbpediaLike(seed, Scale(spec));
  fx->stream = workload::GenerateStream(fx->scenario, StreamFor(spec, seed));
  for (const workload::StreamEvent& event : fx->stream.events) {
    if (event.kind == workload::StreamEvent::Kind::kCommit) {
      fx->commits.push_back(&event.changes);
    } else {
      fx->zipf_picks.push_back(event.user);
    }
  }
  const version::VersionedKnowledgeBase& vkb = *fx->scenario.vkb;
  fx->base_head = vkb.head();
  if (spec.kind == WorkloadKind::kHistoryScan) {
    Rng rng(seed * 7919 + 101);
    fx->history_picks.reserve(kPicks);
    for (size_t i = 0; i < kPicks; ++i) {
      HistoryPick pick;
      pick.user = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(spec.population) - 1));
      pick.before = static_cast<version::VersionId>(
          rng.UniformInt(0, static_cast<int64_t>(fx->base_head) - 1));
      fx->history_picks.push_back(pick);
    }
  }

  auto base = vkb.Snapshot(0);
  if (!base.ok()) return base.status();
  fx->kb = std::make_unique<version::ShardedKnowledgeBase>(
      version::ShardedKnowledgeBase::Options{.shards = 4}, **base);
  for (version::VersionId v = 1; v <= fx->base_head; ++v) {
    auto changes = vkb.Changes(v);
    if (!changes.ok()) return changes.status();
    auto id = fx->kb->Commit(std::move(changes).value(), "replay", "history",
                             v);
    if (!id.ok()) return id.status();
  }

  fx->service = std::make_unique<engine::RecommendationService>(
      fx->registry, ServingOptions());
  EVOREC_RETURN_IF_ERROR(
      fx->service->WarmStart(*fx->kb, fx->base_head - 1, fx->base_head));
  fx->acked_head.store(fx->base_head);

  auto head = fx->kb->SharedSnapshot(fx->base_head);
  if (!head.ok()) return head.status();
  fx->inputs.versions = fx->kb->version_count();
  fx->inputs.triples = (*head)->store().size();
  fx->inputs.commits = fx->commits.size();
  fx->inputs.change_triples = fx->stream.change_triples;
  fx->inputs.population = fx->stream.users.size();
  return fx;
}

}  // namespace evorec::perfbench

// Concurrent incremental-refresh stress (the TSan CI target): one
// committer thread drives a live commit stream through
// RecommendationService::Commit while server threads keep serving
// recommendations over the advancing head — the serving-loop write
// path racing the read path through one shared engine.
//
// The change sets are pre-generated on a scratch KB sharing the
// serving KB's dictionary, so every term is interned before the
// threads start and the dictionary is strictly read-only during the
// race — commits and serves only contend on the engine's own locks,
// which is exactly the surface under test.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/recommendation_service.h"
#include "measures/registry.h"
#include "profile/profile.h"
#include "version/versioned_kb.h"
#include "workload/evolution_generator.h"
#include "workload/scenarios.h"

namespace evorec::engine {
namespace {

TEST(IncrementalStressTest, CommitterAndServersShareOneEngine) {
  constexpr size_t kCommits = 10;
  constexpr size_t kServers = 4;
  constexpr size_t kServesPerThread = 24;

  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.properties = 10;
  scale.instances = 150;
  scale.edges = 300;
  scale.versions = 1;
  scale.operations = 50;
  workload::Scenario scenario = workload::MakeDbpediaLike(47, scale);
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;

  // Pre-generate the stream on a scratch KB seeded with the serving
  // head. Copying a KnowledgeBase shares its dictionary, so the fresh
  // IRIs of every future commit are interned into the SERVING
  // dictionary here, before any thread starts.
  auto head_snapshot = vkb.Snapshot(vkb.head());
  ASSERT_TRUE(head_snapshot.ok());
  version::VersionedKnowledgeBase scratch(**head_snapshot);
  ASSERT_EQ(scratch.shared_dictionary().get(), vkb.shared_dictionary().get());
  std::vector<version::ChangeSet> stream;
  stream.reserve(kCommits);
  for (size_t step = 0; step < kCommits; ++step) {
    auto current = scratch.Snapshot(scratch.head());
    ASSERT_TRUE(current.ok());
    workload::EvolutionOptions options;
    options.operations = 15;
    if (step % 2 == 1) options.mix = workload::ChangeMix::InstanceChurn();
    options.epoch = 2000 + step;
    options.seed = 640 + step;
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **current, scratch.dictionary(), options);
    stream.push_back(outcome.changes);
    ASSERT_TRUE(
        scratch.Commit(std::move(outcome.changes), "gen", "scratch").ok());
  }

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  ServiceOptions service_options;
  service_options.engine.threads = 2;
  RecommendationService service(registry, service_options);
  ASSERT_TRUE(service.WarmStart(vkb, vkb.head() - 1, vkb.head()).ok());

  std::atomic<version::VersionId> published{vkb.head()};
  std::atomic<int> failures{0};

  std::thread committer([&] {
    for (version::ChangeSet& changes : stream) {
      auto committed =
          service.Commit(vkb, std::move(changes), "committer", "stress");
      if (!committed.ok()) {
        ++failures;
        return;
      }
      published.store(*committed, std::memory_order_release);
    }
  });

  std::vector<std::thread> servers;
  servers.reserve(kServers);
  for (size_t s = 0; s < kServers; ++s) {
    servers.emplace_back([&, s] {
      profile::HumanProfile solo = scenario.end_user;
      profile::HumanProfile batch_a("stress-user-a-" + std::to_string(s));
      profile::HumanProfile batch_b("stress-user-b-" + std::to_string(s));
      for (size_t i = 0; i < kServesPerThread; ++i) {
        const version::VersionId head =
            published.load(std::memory_order_acquire);
        if (i % 3 == 0) {
          std::vector<profile::HumanProfile*> profiles{&batch_a, &batch_b};
          auto lists = service.RecommendBatch(vkb, head - 1, head, profiles);
          if (!lists.ok() || lists->size() != 2) ++failures;
        } else {
          auto list = service.Recommend(vkb, head - 1, head, solo);
          if (!list.ok()) ++failures;
        }
      }
    });
  }

  committer.join();
  for (std::thread& server : servers) server.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(published.load(), vkb.head());
  EXPECT_EQ(vkb.head(), 1 + kCommits);
  // Every commit refreshed incrementally through the shared engine.
  EXPECT_EQ(service.engine_stats().contexts_refreshed, kCommits);
  EXPECT_EQ(service.engine().incremental_stats().refreshes, kCommits);
}

}  // namespace
}  // namespace evorec::engine

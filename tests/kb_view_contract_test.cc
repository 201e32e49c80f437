// The KbView contract, checked over every KB the engine serves: a
// VersionedKnowledgeBase under full materialisation and under a delta
// chain, and a ShardedKnowledgeBase with 1 and 4 shards. Every
// implementation must report unknown versions as NotFound, refuse a
// change set for version 0, and hand out snapshots that stay pinned to
// their version across later commits and snapshot-cache eviction.
// KbViewConcurrencyTest then serves one delta-chain KB through two
// services while one of them commits, and builds contexts over a
// full-materialisation KB while it commits: the KB's own lock is the
// only synchronisation between them (run it under TSan).

#include "version/kb_view.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/recommendation_service.h"
#include "measures/measure_context.h"
#include "version/sharded_kb.h"
#include "version/versioned_kb.h"
#include "workload/scenarios.h"

namespace evorec::version {
namespace {

using rdf::Triple;

enum class KbKind { kFullMaterialization, kDeltaChain, kOneShard, kFourShards };

// One KB under test plus the hook that drops its snapshot caches.
struct KbUnderTest {
  std::unique_ptr<KbView> kb;
  std::function<void()> evict;
};

KbUnderTest MakeKb(KbKind kind) {
  KbUnderTest out;
  if (kind == KbKind::kFullMaterialization || kind == KbKind::kDeltaChain) {
    auto vkb = std::make_unique<VersionedKnowledgeBase>(
        kind == KbKind::kDeltaChain ? ArchivePolicy::kDeltaChain
                                    : ArchivePolicy::kFullMaterialization);
    const VersionedKnowledgeBase* raw = vkb.get();
    out.evict = [raw] { raw->EvictSnapshotCache(); };
    out.kb = std::move(vkb);
    return out;
  }
  // Delta-chain shards, so eviction really drops materialised state.
  auto sharded = std::make_unique<ShardedKnowledgeBase>(
      ShardedKnowledgeBase::Options{
          .shards = kind == KbKind::kOneShard ? size_t{1} : size_t{4},
          .policy = ArchivePolicy::kDeltaChain});
  const ShardedKnowledgeBase* raw = sharded.get();
  out.evict = [raw] {
    for (size_t i = 0; i < raw->shard_count(); ++i) {
      raw->shard(i).EvictSnapshotCache();
    }
  };
  out.kb = std::move(sharded);
  return out;
}

// A deterministic history over a small term universe, so commits
// collide with earlier versions (re-adds, removals of absent triples).
std::vector<ChangeSet> RandomHistory(uint64_t seed, size_t versions) {
  Rng rng(seed);
  const auto term = [&rng](int hi) {
    return static_cast<rdf::TermId>(rng.UniformInt(0, hi));
  };
  std::vector<ChangeSet> history(versions);
  for (ChangeSet& cs : history) {
    for (int i = rng.UniformInt(5, 30); i > 0; --i) {
      cs.additions.push_back({term(20), term(6), term(20)});
    }
    for (int i = rng.UniformInt(0, 12); i > 0; --i) {
      cs.removals.push_back({term(20), term(6), term(20)});
    }
  }
  return history;
}

// Reference model: the content of every version, replaying additions
// then removals onto an ordered set.
std::vector<std::vector<Triple>> ExpectedContents(
    const std::vector<ChangeSet>& history) {
  std::vector<std::vector<Triple>> contents(1);
  std::set<Triple> current;
  for (const ChangeSet& cs : history) {
    current.insert(cs.additions.begin(), cs.additions.end());
    for (const Triple& t : cs.removals) current.erase(t);
    contents.emplace_back(current.begin(), current.end());
  }
  return contents;
}

std::vector<Triple> Content(const rdf::KnowledgeBase& kb) {
  return kb.store().Match(rdf::TriplePattern{});
}

void Commit(KbView& kb, const ChangeSet& changes) {
  const VersionId expected = kb.head() + 1;
  auto id = kb.Commit(changes, "author", "message", /*timestamp=*/expected);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_EQ(*id, expected);
}

class KbViewContractTest : public ::testing::TestWithParam<KbKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllKbs, KbViewContractTest,
    ::testing::Values(KbKind::kFullMaterialization, KbKind::kDeltaChain,
                      KbKind::kOneShard, KbKind::kFourShards),
    [](const ::testing::TestParamInfo<KbKind>& param) {
      switch (param.param) {
        case KbKind::kFullMaterialization:
          return std::string("VkbFullMaterialization");
        case KbKind::kDeltaChain:
          return std::string("VkbDeltaChain");
        case KbKind::kOneShard:
          return std::string("ShardedOne");
        case KbKind::kFourShards:
          return std::string("ShardedFour");
      }
      return std::string("Unknown");
    });

TEST_P(KbViewContractTest, UnknownVersionsAreNotFound) {
  KbUnderTest t = MakeKb(GetParam());
  for (const ChangeSet& cs : RandomHistory(3, 3)) {
    ASSERT_NO_FATAL_FAILURE(Commit(*t.kb, cs));
  }
  ASSERT_EQ(t.kb->version_count(), 4u);
  ASSERT_EQ(t.kb->head(), 3u);
  for (VersionId v : {VersionId{4}, VersionId{100}}) {
    EXPECT_EQ(t.kb->Handle(v).status().code(), StatusCode::kNotFound) << v;
    EXPECT_EQ(t.kb->SharedSnapshot(v).status().code(), StatusCode::kNotFound)
        << v;
    EXPECT_EQ(t.kb->Changes(v).status().code(), StatusCode::kNotFound) << v;
  }
  for (VersionId v = 0; v <= 3; ++v) {
    EXPECT_TRUE(t.kb->Handle(v).ok()) << v;
    EXPECT_TRUE(t.kb->SharedSnapshot(v).ok()) << v;
  }
}

TEST_P(KbViewContractTest, VersionZeroHasNoChangeSet) {
  KbUnderTest t = MakeKb(GetParam());
  EXPECT_EQ(t.kb->Changes(0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_NO_FATAL_FAILURE(Commit(*t.kb, RandomHistory(5, 1)[0]));
  EXPECT_EQ(t.kb->Changes(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(t.kb->Changes(1).ok());
}

TEST_P(KbViewContractTest, PinnedSnapshotsSurviveCommitsAndEviction) {
  KbUnderTest t = MakeKb(GetParam());
  const std::vector<ChangeSet> history = RandomHistory(11, 8);
  const std::vector<std::vector<Triple>> expected = ExpectedContents(history);

  for (size_t i = 0; i < 3; ++i) {
    ASSERT_NO_FATAL_FAILURE(Commit(*t.kb, history[i]));
  }
  std::vector<std::shared_ptr<const rdf::KnowledgeBase>> pinned;
  for (VersionId v = 0; v <= 3; ++v) {
    auto snapshot = t.kb->SharedSnapshot(v);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    pinned.push_back(std::move(snapshot).value());
  }
  t.evict();
  for (size_t i = 3; i < history.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(Commit(*t.kb, history[i]));
    t.evict();
  }

  for (VersionId v = 0; v < pinned.size(); ++v) {
    EXPECT_EQ(Content(*pinned[v]), expected[v]) << "pinned version " << v;
  }
  for (VersionId v = 0; v <= t.kb->head(); ++v) {
    auto snapshot = t.kb->SharedSnapshot(v);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ(Content(**snapshot), expected[v]) << "version " << v;
  }
}

// Two services — two engines with independent caches — serve one
// delta-chain VersionedKnowledgeBase while one of them commits. Every
// snapshot pin of both engines and the commits meet only at the KB's
// own lock.
TEST(KbViewConcurrencyTest, TwoServicesShareOneDeltaChainKbDuringCommits) {
  workload::ScenarioScale scale;
  scale.classes = 24;
  scale.properties = 8;
  scale.instances = 150;
  scale.edges = 300;
  scale.versions = 5;
  scale.operations = 60;
  workload::Scenario scenario = workload::MakeDbpediaLike(29, scale);
  auto base = scenario.vkb->Snapshot(0);
  ASSERT_TRUE(base.ok());
  VersionedKnowledgeBase kb(ArchivePolicy::kDeltaChain, **base);
  std::vector<ChangeSet> pending;
  for (VersionId v = 1; v <= scenario.vkb->head(); ++v) {
    auto changes = scenario.vkb->Changes(v);
    ASSERT_TRUE(changes.ok());
    if (v == 1) {
      ASSERT_TRUE(kb.Commit(std::move(changes).value(), "seed", "v1").ok());
    } else {
      pending.push_back(std::move(changes).value());
    }
  }

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  engine::ServiceOptions options;
  options.engine.threads = 2;
  engine::RecommendationService committer(registry, options);
  engine::RecommendationService bystander(registry, options);
  ASSERT_TRUE(committer.WarmStart(kb, 0, 1).ok());

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> served{0};
  const auto reader = [&](engine::RecommendationService* service,
                          uint64_t seed) {
    Rng rng(seed);
    // At least a few reads each, and keep reading until the commits
    // are in: pairs span the whole (growing) history, so reads keep
    // missing the caches and pinning snapshots.
    for (int i = 0; i < 6 || !done.load(); ++i) {
      const VersionId head = kb.head();
      const VersionId v2 =
          static_cast<VersionId>(rng.UniformInt(1, static_cast<int>(head)));
      profile::HumanProfile prof = scenario.end_user;
      auto list = service->Recommend(kb, v2 - 1, v2, prof);
      if (!list.ok()) {
        failures.fetch_add(1);
      } else {
        served.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  readers.emplace_back(reader, &committer, 1);
  readers.emplace_back(reader, &bystander, 2);
  readers.emplace_back(reader, &bystander, 3);
  for (ChangeSet& changes : pending) {
    auto id = committer.Commit(kb, std::move(changes), "stream", "commit");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(served.load(), 18u);
  EXPECT_EQ(kb.head(), scenario.vkb->head());
  // Both engines answer the final head pair identically.
  profile::HumanProfile a = scenario.end_user;
  profile::HumanProfile b = scenario.end_user;
  auto from_committer = committer.Recommend(kb, kb.head() - 1, kb.head(), a);
  auto from_bystander = bystander.Recommend(kb, kb.head() - 1, kb.head(), b);
  ASSERT_TRUE(from_committer.ok());
  ASSERT_TRUE(from_bystander.ok());
  ASSERT_EQ(from_committer->items.size(), from_bystander->items.size());
  for (size_t i = 0; i < from_committer->items.size(); ++i) {
    EXPECT_EQ(from_committer->items[i].candidate.id,
              from_bystander->items[i].candidate.id);
    EXPECT_EQ(from_committer->items[i].explanation.ToText(),
              from_bystander->items[i].explanation.ToText());
  }
}

// EvolutionContext::FromVersions beside a committer on one
// full-materialisation KB. Each commit appends a store there, which can
// move every earlier one, so a context must be built from pinned
// snapshots rather than from pointers into the KB held past its lock.
TEST(KbViewConcurrencyTest, FromVersionsBesideACommitterOnFullMaterialization) {
  workload::ScenarioScale scale;
  scale.classes = 16;
  scale.properties = 6;
  scale.instances = 80;
  scale.edges = 160;
  scale.versions = 24;
  scale.operations = 20;
  workload::Scenario scenario = workload::MakeDbpediaLike(41, scale);
  auto base = scenario.vkb->Snapshot(0);
  ASSERT_TRUE(base.ok());
  VersionedKnowledgeBase kb(ArchivePolicy::kFullMaterialization, **base);
  std::vector<size_t> sizes;
  for (VersionId v = 0; v <= scenario.vkb->head(); ++v) {
    auto snapshot = scenario.vkb->Snapshot(v);
    ASSERT_TRUE(snapshot.ok());
    sizes.push_back((*snapshot)->store().size());
  }
  ASSERT_NO_FATAL_FAILURE(Commit(kb, *scenario.vkb->Changes(1)));

  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> failures{0};
  std::thread reader([&] {
    while (!done.load()) {
      const VersionId head = kb.head();
      auto ctx = measures::EvolutionContext::FromVersions(kb, head - 1, head);
      if (!ctx.ok() || ctx->before().store().size() != sizes[head - 1] ||
          ctx->after().store().size() != sizes[head]) {
        failures.fetch_add(1);
      }
      reads.fetch_add(1);
    }
  });
  for (VersionId v = 2; v <= scenario.vkb->head(); ++v) {
    // Let the reader start a context build, then commit under it.
    const size_t seen = reads.load();
    while (reads.load() == seen) std::this_thread::yield();
    auto id = kb.Commit(*scenario.vkb->Changes(v), "stream", "commit");
    if (!id.ok()) {
      ADD_FAILURE() << id.status().ToString();
      break;
    }
  }
  done.store(true);
  reader.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(kb.head(), scenario.vkb->head());
}

}  // namespace
}  // namespace evorec::version

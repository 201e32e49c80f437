// Differential tests for the subject-hash-sharded versioned KB: at
// every shard count, the same commit sequence must produce union
// snapshots whose scans are byte-identical to one unsharded
// VersionedKnowledgeBase, deterministic folded fingerprints, intact
// per-version change sets — and serving a RecommendBatch through the
// sharded view must match the sequential single-store path exactly.

#include "version/sharded_kb.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/recommendation_service.h"
#include "workload/scenarios.h"

namespace evorec::version {
namespace {

using rdf::kAnyTerm;
using rdf::Triple;
using rdf::TriplePattern;

// A deterministic multi-version history over a small term universe so
// commits collide with earlier versions (re-adds, double removes).
std::vector<ChangeSet> RandomHistory(uint64_t seed, size_t versions) {
  Rng rng(seed);
  std::vector<ChangeSet> history;
  for (size_t v = 0; v < versions; ++v) {
    ChangeSet cs;
    for (int i = rng.UniformInt(5, 40); i > 0; --i) {
      cs.additions.push_back({static_cast<rdf::TermId>(rng.UniformInt(0, 30)),
                              static_cast<rdf::TermId>(rng.UniformInt(0, 8)),
                              static_cast<rdf::TermId>(rng.UniformInt(0, 30))});
    }
    for (int i = rng.UniformInt(0, 15); i > 0; --i) {
      cs.removals.push_back({static_cast<rdf::TermId>(rng.UniformInt(0, 30)),
                             static_cast<rdf::TermId>(rng.UniformInt(0, 8)),
                             static_cast<rdf::TermId>(rng.UniformInt(0, 30))});
    }
    history.push_back(std::move(cs));
  }
  return history;
}

void ReplayHistory(KbView& view, const std::vector<ChangeSet>& history) {
  const VersionId base = view.head();
  for (size_t v = 0; v < history.size(); ++v) {
    auto id = view.Commit(history[v], "author-" + std::to_string(v),
                          "commit " + std::to_string(v), /*timestamp=*/v + 1);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(*id, base + v + 1);
  }
}

// Scans every pattern shape over both stores and demands identical
// results — content AND order (the union snapshot's k-way merge must
// restore global SPO order).
void ExpectIdenticalScans(const rdf::TripleStore& sharded,
                          const rdf::TripleStore& single) {
  ASSERT_EQ(sharded.size(), single.size());
  const TriplePattern shapes[] = {
      {kAnyTerm, kAnyTerm, kAnyTerm}, {7, kAnyTerm, kAnyTerm},
      {kAnyTerm, 3, kAnyTerm},        {kAnyTerm, kAnyTerm, 11},
      {7, 3, kAnyTerm},               {kAnyTerm, 3, 11},
      {7, 3, 11},
  };
  for (const TriplePattern& pattern : shapes) {
    EXPECT_EQ(sharded.Match(pattern), single.Match(pattern))
        << "pattern (" << pattern.subject << "," << pattern.predicate << ","
        << pattern.object << ")";
  }
  for (rdf::TermId s = 0; s < 31; ++s) {
    for (rdf::TermId o = 0; o < 31; ++o) {
      const Triple probe{s, s % 9, o};
      EXPECT_EQ(sharded.Contains(probe), single.Contains(probe));
    }
  }
}

class ShardedKbTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedKbTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& param_info) {
                           return "Shards" +
                                  std::to_string(param_info.param);
                         });

TEST_P(ShardedKbTest, UnionSnapshotsMatchUnshardedStore) {
  const std::vector<ChangeSet> history = RandomHistory(17, 8);

  VersionedKnowledgeBase single;
  ReplayHistory(single, history);

  ShardedKnowledgeBase sharded({.shards = GetParam()});
  ReplayHistory(sharded, history);

  ASSERT_EQ(sharded.version_count(), single.version_count());
  ASSERT_EQ(sharded.head(), single.head());
  for (VersionId v = 0; v <= sharded.head(); ++v) {
    auto sharded_snapshot = sharded.SharedSnapshot(v);
    auto single_snapshot = single.SharedSnapshot(v);
    ASSERT_TRUE(sharded_snapshot.ok()) << sharded_snapshot.status().ToString();
    ASSERT_TRUE(single_snapshot.ok());
    ASSERT_NO_FATAL_FAILURE(ExpectIdenticalScans((*sharded_snapshot)->store(),
                                                 (*single_snapshot)->store()))
        << "version " << v;
  }
}

TEST_P(ShardedKbTest, ChangesAndInfoRoundTrip) {
  const std::vector<ChangeSet> history = RandomHistory(23, 5);
  ShardedKnowledgeBase sharded({.shards = GetParam()});
  ReplayHistory(sharded, history);

  for (VersionId v = 1; v <= sharded.head(); ++v) {
    auto cs = sharded.Changes(v);
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    // The archived set is the caller's unsplit set, verbatim.
    EXPECT_EQ(cs->additions, history[v - 1].additions) << "version " << v;
    EXPECT_EQ(cs->removals, history[v - 1].removals) << "version " << v;
    auto info = sharded.Info(v);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->author, "author-" + std::to_string(v - 1));
    EXPECT_EQ(info->timestamp, v);
    EXPECT_EQ(info->additions, history[v - 1].additions.size());
  }
  EXPECT_FALSE(sharded.Changes(0).ok());
  EXPECT_FALSE(sharded.Changes(99).ok());
  EXPECT_FALSE(sharded.Handle(99).ok());
  EXPECT_FALSE(sharded.SharedSnapshot(99).ok());
}

TEST_P(ShardedKbTest, FingerprintsAreDeterministicAndContentSensitive) {
  const std::vector<ChangeSet> history = RandomHistory(31, 6);

  ShardedKnowledgeBase a({.shards = GetParam()});
  ShardedKnowledgeBase b({.shards = GetParam()});
  ReplayHistory(a, history);
  ReplayHistory(b, history);
  for (VersionId v = 0; v <= a.head(); ++v) {
    auto ha = a.Handle(v);
    auto hb = b.Handle(v);
    ASSERT_TRUE(ha.ok());
    ASSERT_TRUE(hb.ok());
    EXPECT_EQ(ha->fingerprint, hb->fingerprint) << "version " << v;
    if (v > 0) {
      auto prev = a.Handle(v - 1);
      ASSERT_TRUE(prev.ok());
      EXPECT_NE(ha->fingerprint, prev->fingerprint);
    }
  }

  ShardedKnowledgeBase c({.shards = GetParam()});
  ReplayHistory(c, RandomHistory(32, 6));
  auto ha = a.Handle(a.head());
  auto hc = c.Handle(c.head());
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hc.ok());
  EXPECT_NE(ha->fingerprint, hc->fingerprint);
}

TEST_P(ShardedKbTest, PooledCommitsMatchSerialCommits) {
  const std::vector<ChangeSet> history = RandomHistory(41, 6);

  ShardedKnowledgeBase serial({.shards = GetParam()});
  ReplayHistory(serial, history);

  ThreadPool pool(4);
  ShardedKnowledgeBase pooled({.shards = GetParam(), .pool = &pool});
  ReplayHistory(pooled, history);

  for (VersionId v = 0; v <= serial.head(); ++v) {
    auto hs = serial.Handle(v);
    auto hp = pooled.Handle(v);
    ASSERT_TRUE(hs.ok());
    ASSERT_TRUE(hp.ok());
    EXPECT_EQ(hs->fingerprint, hp->fingerprint) << "version " << v;
  }
  auto serial_snapshot = serial.SharedSnapshot(serial.head());
  auto pooled_snapshot = pooled.SharedSnapshot(pooled.head());
  ASSERT_TRUE(serial_snapshot.ok());
  ASSERT_TRUE(pooled_snapshot.ok());
  ASSERT_NO_FATAL_FAILURE(ExpectIdenticalScans(
      (*pooled_snapshot)->store(), (*serial_snapshot)->store()));
}

TEST_P(ShardedKbTest, SubjectsLandOnTheirHashShardOnly) {
  const std::vector<ChangeSet> history = RandomHistory(51, 4);
  ShardedKnowledgeBase sharded({.shards = GetParam()});
  ReplayHistory(sharded, history);

  size_t total = 0;
  for (size_t i = 0; i < sharded.shard_count(); ++i) {
    const VersionedKnowledgeBase& shard = sharded.shard(i);
    ASSERT_EQ(shard.version_count(), sharded.version_count());
    auto snapshot = shard.Snapshot(shard.head());
    ASSERT_TRUE(snapshot.ok());
    (*snapshot)->store().ScanT(
        {kAnyTerm, kAnyTerm, kAnyTerm}, [&](const Triple& t) {
          EXPECT_EQ(sharded.ShardOf(t.subject), i);
          ++total;
          return true;
        });
  }
  auto union_snapshot = sharded.SharedSnapshot(sharded.head());
  ASSERT_TRUE(union_snapshot.ok());
  EXPECT_EQ(total, (*union_snapshot)->size());
}

TEST(ShardedKbSeedTest, InitialKbIsSplitAndServedBack) {
  rdf::KnowledgeBase initial;
  for (uint32_t i = 0; i < 100; ++i) {
    initial.AddIriTriple("s" + std::to_string(i), "p" + std::to_string(i % 5),
                         "o" + std::to_string(i % 17));
  }
  const std::vector<Triple> expected =
      initial.store().Match(rdf::TriplePattern{});

  ShardedKnowledgeBase sharded({.shards = 4}, initial);
  EXPECT_EQ(sharded.shared_dictionary(), initial.shared_dictionary());
  auto base = sharded.SharedSnapshot(0);
  ASSERT_TRUE(base.ok());
  std::vector<Triple> served;
  (*base)->store().ScanT({kAnyTerm, kAnyTerm, kAnyTerm}, [&](const Triple& t) {
    served.push_back(t);
    return true;
  });
  EXPECT_EQ(served, expected);
}

TEST(ShardedKbServingTest, SnapshotsPinWhileLaterCommitsLand) {
  const std::vector<ChangeSet> history = RandomHistory(61, 3);
  ShardedKnowledgeBase sharded({.shards = 4});
  ReplayHistory(sharded, history);

  auto pinned = sharded.SharedSnapshot(2);
  ASSERT_TRUE(pinned.ok());
  const size_t pinned_size = (*pinned)->size();
  const std::vector<Triple> pinned_triples =
      (*pinned)->store().Match(rdf::TriplePattern{});

  // Land more commits; the pinned reader must not notice.
  ReplayHistory(sharded, RandomHistory(62, 4));
  EXPECT_EQ(sharded.head(), 7u);
  EXPECT_EQ((*pinned)->size(), pinned_size);
  EXPECT_EQ((*pinned)->store().Match(rdf::TriplePattern{}), pinned_triples);
}

TEST(ShardedKbServingTest, ServingReadsNeverCopyTheStore) {
  const std::vector<ChangeSet> history = RandomHistory(71, 6);
  ShardedKnowledgeBase sharded({.shards = 4});
  ReplayHistory(sharded, history);

  auto snapshot = sharded.SharedSnapshot(sharded.head());
  ASSERT_TRUE(snapshot.ok());
  const rdf::TripleStore& store = (*snapshot)->store();
  (void)store.Contains({1, 1, 1});
  (void)store.Match({5, kAnyTerm, kAnyTerm});
  size_t n = 0;
  store.ScanT({kAnyTerm, kAnyTerm, kAnyTerm}, [&](const Triple&) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, store.size());
  // The whole read diet above ran off the shared segment stack: zero
  // whole-store flat materialisations.
  EXPECT_EQ(store.stats().materializations, 0u);
}

// The tentpole's oracle: RecommendBatch served through the sharded
// view is byte-identical to the sequential single-store path over the
// same content.
TEST(ShardedKbServingTest, RecommendBatchMatchesSingleStorePath) {
  workload::ScenarioScale scale;
  scale.classes = 40;
  scale.properties = 14;
  scale.instances = 300;
  scale.edges = 600;
  scale.versions = 2;
  scale.operations = 120;

  measures::MeasureRegistry registry = measures::DefaultRegistry();

  // Sequential single-store baseline.
  workload::Scenario baseline = workload::MakeDbpediaLike(31, scale);
  std::vector<profile::HumanProfile> baseline_profiles(
      baseline.curators.members());
  baseline_profiles.push_back(baseline.end_user);
  std::vector<profile::HumanProfile*> baseline_pointers;
  for (profile::HumanProfile& prof : baseline_profiles) {
    baseline_pointers.push_back(&prof);
  }
  engine::ServiceOptions sequential_options;
  sequential_options.parallel_batches = false;
  engine::RecommendationService baseline_service(registry,
                                                 sequential_options);
  auto expected =
      baseline_service.RecommendBatch(*baseline.vkb, 0, 1, baseline_pointers);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Same content rebuilt as a sharded KB: adopt version 0, replay the
  // archived change sets.
  workload::Scenario scenario = workload::MakeDbpediaLike(31, scale);
  auto base = scenario.vkb->Snapshot(0);
  ASSERT_TRUE(base.ok());
  ShardedKnowledgeBase sharded({.shards = 4}, **base);
  for (VersionId v = 1; v <= scenario.vkb->head(); ++v) {
    auto cs = scenario.vkb->Changes(v);
    ASSERT_TRUE(cs.ok());
    auto info = scenario.vkb->Info(v);
    ASSERT_TRUE(info.ok());
    auto committed = sharded.Commit(std::move(cs).value(), info->author,
                                    info->message, info->timestamp);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }

  std::vector<profile::HumanProfile> profiles(scenario.curators.members());
  profiles.push_back(scenario.end_user);
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);

  engine::ServiceOptions options;
  options.engine.threads = 4;
  engine::RecommendationService service(registry, options);
  auto batch = service.RecommendBatch(sharded, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    const recommend::RecommendationList& a = (*batch)[i];
    const recommend::RecommendationList& b = (*expected)[i];
    ASSERT_EQ(a.items.size(), b.items.size()) << "user " << i;
    for (size_t j = 0; j < a.items.size(); ++j) {
      EXPECT_EQ(a.items[j].candidate.id, b.items[j].candidate.id);
      EXPECT_EQ(a.items[j].relatedness, b.items[j].relatedness);
      EXPECT_EQ(a.items[j].novelty, b.items[j].novelty);
      EXPECT_EQ(a.items[j].explanation.ToText(),
                b.items[j].explanation.ToText());
    }
    EXPECT_EQ(a.set_diversity, b.set_diversity);
    EXPECT_EQ(a.candidate_pool_size, b.candidate_pool_size);
  }
}

}  // namespace
}  // namespace evorec::version

// Seed-stability properties of every workload generator: the replay
// suite's byte-identity assertions (scenario_replay_test) and the
// recorded-bench convention both stand on "same seed, same bytes" —
// regenerating a scenario or a stream with one seed must reproduce it
// exactly, across runs and across thread counts, while different
// seeds must diverge.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

using version::ShardedKnowledgeBase;
using version::VersionId;
using workload::StreamMode;
using workload::WorkloadStream;

workload::Scenario SmallScenario(uint64_t seed) {
  workload::ScenarioScale scale;
  scale.classes = 24;
  scale.properties = 10;
  scale.instances = 150;
  scale.edges = 300;
  scale.versions = 2;
  scale.operations = 60;
  return workload::MakeDbpediaLike(seed, scale);
}

workload::WorkloadStream SmallStream(workload::Scenario& scenario,
                                     StreamMode mode, uint64_t seed) {
  workload::StreamOptions options;
  options.mode = mode;
  options.reads = 24;
  options.commits = 4;
  options.population = 8;
  options.ops_per_commit = 6;
  options.flap_block = 5;
  options.seed = seed;
  return workload::GenerateStream(scenario, options);
}

bool SameProfile(const profile::HumanProfile& a,
                 const profile::HumanProfile& b) {
  return a.id() == b.id() && a.interests() == b.interests();
}

bool SameChanges(const version::ChangeSet& a, const version::ChangeSet& b) {
  return a.additions == b.additions && a.removals == b.removals;
}

bool SameStream(const WorkloadStream& a, const WorkloadStream& b) {
  if (a.name != b.name || a.mode != b.mode || a.base_head != b.base_head ||
      a.read_count != b.read_count || a.commit_count != b.commit_count ||
      a.change_triples != b.change_triples ||
      a.events.size() != b.events.size() || a.users.size() != b.users.size()) {
    return false;
  }
  for (size_t i = 0; i < a.users.size(); ++i) {
    if (!SameProfile(a.users[i], b.users[i])) return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    const workload::StreamEvent& x = a.events[i];
    const workload::StreamEvent& y = b.events[i];
    if (x.kind != y.kind || x.timestamp_us != y.timestamp_us ||
        x.user != y.user || x.before != y.before || x.after != y.after ||
        !SameChanges(x.changes, y.changes)) {
      return false;
    }
  }
  return true;
}

std::vector<uint64_t> FingerprintChain(const version::KbView& view) {
  std::vector<uint64_t> chain;
  for (VersionId v = 0; v < view.version_count(); ++v) {
    chain.push_back(view.Handle(v).value().fingerprint);
  }
  return chain;
}

TEST(GeneratorSeedStabilityTest, SchemaAndInstancesAreByteIdenticalPerSeed) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 20;
  schema_options.property_count = 8;
  schema_options.seed = 5;
  workload::GeneratedSchema a = workload::GenerateSchema(schema_options);
  workload::GeneratedSchema b = workload::GenerateSchema(schema_options);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.properties, b.properties);
  EXPECT_EQ(a.kb.store().Match(rdf::TriplePattern{}),
            b.kb.store().Match(rdf::TriplePattern{}));

  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 80;
  instance_options.edge_count = 120;
  instance_options.seed = 6;
  workload::PopulateInstances(a, instance_options);
  workload::PopulateInstances(b, instance_options);
  EXPECT_EQ(a.kb.store().Match(rdf::TriplePattern{}),
            b.kb.store().Match(rdf::TriplePattern{}));

  schema_options.seed = 7;
  workload::GeneratedSchema c = workload::GenerateSchema(schema_options);
  EXPECT_NE(a.kb.store().Match(rdf::TriplePattern{}),
            c.kb.store().Match(rdf::TriplePattern{}));
}

TEST(GeneratorSeedStabilityTest, EvolutionAndProfilesAreByteIdenticalPerSeed) {
  workload::Scenario first = SmallScenario(31);
  workload::Scenario second = SmallScenario(31);
  auto head_a = first.vkb->Snapshot(first.vkb->head());
  auto head_b = second.vkb->Snapshot(second.vkb->head());
  ASSERT_TRUE(head_a.ok());
  ASSERT_TRUE(head_b.ok());

  workload::EvolutionOptions evo;
  evo.operations = 40;
  evo.epoch = 9;
  evo.seed = 77;
  workload::EvolutionOutcome out_a =
      workload::GenerateEvolution(**head_a, first.vkb->dictionary(), evo);
  workload::EvolutionOutcome out_b =
      workload::GenerateEvolution(**head_b, second.vkb->dictionary(), evo);
  EXPECT_TRUE(SameChanges(out_a.changes, out_b.changes));
  EXPECT_EQ(out_a.hot_classes, out_b.hot_classes);

  evo.seed = 78;
  workload::EvolutionOutcome out_c =
      workload::GenerateEvolution(**head_a, first.vkb->dictionary(), evo);
  EXPECT_FALSE(SameChanges(out_a.changes, out_c.changes));

  const schema::SchemaView view_a = schema::SchemaView::Build(**head_a);
  const schema::SchemaView view_b = schema::SchemaView::Build(**head_b);
  Rng rng_a(404);
  Rng rng_b(404);
  workload::ProfileGenOptions prof_options;
  profile::HumanProfile prof_a =
      workload::GenerateProfile("u", view_a, prof_options, rng_a);
  profile::HumanProfile prof_b =
      workload::GenerateProfile("u", view_b, prof_options, rng_b);
  EXPECT_TRUE(SameProfile(prof_a, prof_b));
}

TEST(GeneratorSeedStabilityTest, ScenarioHistoriesShareFingerprintChains) {
  workload::Scenario a = SmallScenario(19);
  workload::Scenario b = SmallScenario(19);
  EXPECT_EQ(FingerprintChain(*a.vkb), FingerprintChain(*b.vkb));
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.curators.members().size(), b.curators.members().size());
  for (size_t i = 0; i < a.curators.members().size(); ++i) {
    EXPECT_TRUE(
        SameProfile(a.curators.members()[i], b.curators.members()[i]));
  }

  workload::Scenario c = SmallScenario(20);
  EXPECT_NE(FingerprintChain(*a.vkb), FingerprintChain(*c.vkb));
}

TEST(StreamGeneratorPropertyTest, StreamsAreByteIdenticalPerSeed) {
  for (StreamMode mode :
       {StreamMode::kBurstyCommits, StreamMode::kZipfReads,
        StreamMode::kAdversarialChurn, StreamMode::kSchemaShockwave}) {
    workload::Scenario first = SmallScenario(41);
    workload::Scenario second = SmallScenario(41);
    WorkloadStream stream_a = SmallStream(first, mode, 900);
    WorkloadStream stream_b = SmallStream(second, mode, 900);
    EXPECT_TRUE(SameStream(stream_a, stream_b))
        << workload::StreamModeName(mode);

    workload::Scenario third = SmallScenario(41);
    WorkloadStream stream_c = SmallStream(third, mode, 901);
    EXPECT_FALSE(SameStream(stream_a, stream_c))
        << workload::StreamModeName(mode);
  }
}

TEST(StreamGeneratorPropertyTest, StreamsInterleaveBothEventKinds) {
  workload::Scenario scenario = SmallScenario(43);
  WorkloadStream stream =
      SmallStream(scenario, StreamMode::kBurstyCommits, 910);
  EXPECT_EQ(stream.read_count, 24u);
  EXPECT_EQ(stream.commit_count, 4u);
  EXPECT_EQ(stream.events.size(), 28u);
  uint64_t last_ts = 0;
  for (const workload::StreamEvent& event : stream.events) {
    EXPECT_GT(event.timestamp_us, last_ts);
    last_ts = event.timestamp_us;
    if (event.kind == workload::StreamEvent::Kind::kRead) {
      EXPECT_LT(event.user, stream.users.size());
      EXPECT_EQ(event.after, event.before + 1);
    } else {
      EXPECT_FALSE(event.changes.empty());
    }
  }
}

// The thread-count leg: replaying one history into sharded KBs that
// commit their shards serially vs on a 4-thread pool must yield
// identical per-version fingerprint chains (and so identical engine
// cache keys).
TEST(StreamGeneratorPropertyTest, ShardReplayChainsAreThreadCountInvariant) {
  workload::Scenario scenario = SmallScenario(47);
  WorkloadStream stream = SmallStream(scenario, StreamMode::kZipfReads, 920);

  ThreadPool pool(4);
  auto replay = [&](ThreadPool* commit_pool) {
    auto base = scenario.vkb->Snapshot(0);
    EXPECT_TRUE(base.ok());
    auto sharded = std::make_unique<ShardedKnowledgeBase>(
        ShardedKnowledgeBase::Options{.shards = 4, .pool = commit_pool},
        **base);
    for (VersionId v = 1; v <= scenario.vkb->head(); ++v) {
      auto cs = scenario.vkb->Changes(v);
      EXPECT_TRUE(cs.ok());
      EXPECT_TRUE(sharded->Commit(std::move(cs).value(), "replay", "v", v).ok());
    }
    for (const workload::StreamEvent& event : stream.events) {
      if (event.kind != workload::StreamEvent::Kind::kCommit) continue;
      version::ChangeSet copy = event.changes;
      EXPECT_TRUE(
          sharded->Commit(std::move(copy), "stream", "c", event.timestamp_us)
              .ok());
    }
    return sharded;
  };

  std::unique_ptr<ShardedKnowledgeBase> serial = replay(nullptr);
  std::unique_ptr<ShardedKnowledgeBase> pooled = replay(&pool);
  EXPECT_EQ(FingerprintChain(*serial), FingerprintChain(*pooled));
  EXPECT_EQ(serial->head(), stream.base_head + stream.commit_count);
}

}  // namespace
}  // namespace evorec

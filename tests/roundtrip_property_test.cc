// Cross-module property suites on randomly generated workloads:
// archive equivalence, serialisation round trips, and context
// configuration invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "evorec.h"

namespace evorec {
namespace {

class HistoryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryPropertyTest,
                         ::testing::Values(2, 11, 31, 101));

// Random multi-version histories: every pinned snapshot must equal its
// delta-chain reconstruction (the base plus the archived change sets,
// replayed), and a second KB fed the same history through the exchange
// format must agree on every snapshot.
TEST_P(HistoryPropertyTest, ArchivePoliciesAreObservationallyEqual) {
  const uint64_t seed = GetParam();
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 30;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 200;
  instance_options.edge_count = 350;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);

  version::VersionedKnowledgeBase full(generated.kb);
  version::VersionedKnowledgeBase shipped(generated.kb);
  for (uint32_t v = 0; v < 4; ++v) {
    auto head = full.Snapshot(full.head());
    ASSERT_TRUE(head.ok());
    workload::EvolutionOptions evolution_options;
    evolution_options.operations = 80;
    evolution_options.seed = seed + 10 + v;
    evolution_options.epoch = v + 1;
    const workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, full.dictionary(), evolution_options);
    // Ship the change set through the exchange format so the test
    // also covers cross-store shipping.
    const std::string wire =
        delta::WriteChangeSet(outcome.changes, full.dictionary());
    auto received = delta::ParseChangeSet(wire, shipped.dictionary());
    ASSERT_TRUE(received.ok());
    (void)full.Commit(outcome.changes, "t", "step");
    (void)shipped.Commit(*received, "t", "step");
  }

  ASSERT_EQ(full.version_count(), shipped.version_count());
  rdf::KnowledgeBase chain = **full.Snapshot(0);
  for (uint32_t v = 0; v < full.version_count(); ++v) {
    if (v > 0) {
      auto changes = full.Changes(v);
      ASSERT_TRUE(changes.ok());
      chain.store().AddAll(changes->additions);
      chain.store().RemoveAll(changes->removals);
    }
    auto sf = full.Snapshot(v);
    auto ss = shipped.Snapshot(v);
    ASSERT_TRUE(sf.ok());
    ASSERT_TRUE(ss.ok());
    const std::string expected =
        rdf::WriteNTriples((*sf)->store(), full.dictionary());
    EXPECT_EQ(rdf::WriteNTriples(chain.store(), full.dictionary()), expected)
        << "version " << v << " seed " << seed;
    EXPECT_EQ(rdf::WriteNTriples((*ss)->store(), shipped.dictionary()),
              expected)
        << "version " << v << " seed " << seed;
  }
}

// N-Triples round trip over arbitrary generated KBs: write → parse →
// write is a fixed point (canonical form), for every seed.
TEST_P(HistoryPropertyTest, NTriplesRoundTripIsCanonical) {
  const uint64_t seed = GetParam();
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 25;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 150;
  instance_options.edge_count = 250;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);

  const std::string once = rdf::WriteNTriples(generated.kb.store(),
                                              generated.kb.dictionary());
  rdf::Dictionary dict2;
  rdf::TripleStore store2;
  ASSERT_TRUE(rdf::ParseNTriples(once, dict2, store2).ok());
  EXPECT_EQ(store2.size(), generated.kb.size());
  const std::string twice = rdf::WriteNTriples(store2, dict2);
  // Line sets must match (term ids differ between dictionaries, so the
  // order of interning does too — but each line is canonical).
  auto sorted_lines = [](const std::string& text) {
    std::vector<std::string> lines = StrSplit(text, '\n');
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sorted_lines(once), sorted_lines(twice));
}

// Change-set exchange round trip on generated evolutions.
TEST_P(HistoryPropertyTest, ChangeSetExchangeRoundTrips) {
  const uint64_t seed = GetParam();
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 25;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 150;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  workload::EvolutionOptions evolution_options;
  evolution_options.operations = 120;
  evolution_options.seed = seed + 2;
  const workload::EvolutionOutcome outcome = workload::GenerateEvolution(
      generated.kb, generated.kb.dictionary(), evolution_options);

  const std::string text =
      delta::WriteChangeSet(outcome.changes, generated.kb.dictionary());
  auto parsed = delta::ParseChangeSet(text, generated.kb.dictionary());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->additions, outcome.changes.additions);
  EXPECT_EQ(parsed->removals, outcome.changes.removals);
}

// Sampled-betweenness contexts: reports stay valid (right size,
// non-negative, finite) and exact mode is the fixed point of raising
// pivot counts.
TEST_P(HistoryPropertyTest, SampledContextProducesValidReports) {
  const uint64_t seed = GetParam();
  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.instances = 150;
  scale.edges = 250;
  scale.versions = 1;
  scale.operations = 80;
  workload::Scenario scenario = workload::MakeDbpediaLike(seed, scale);

  measures::ContextOptions sampled_options;
  sampled_options.betweenness_mode = measures::BetweennessMode::kSampled;
  sampled_options.betweenness_pivots = 8;
  sampled_options.seed = seed;
  auto sampled = measures::EvolutionContext::FromVersions(
      *scenario.vkb, 0, 1, sampled_options);
  ASSERT_TRUE(sampled.ok());

  measures::BetweennessShiftMeasure measure;
  auto report = measure.Compute(*sampled);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->size(), sampled->union_classes().size());
  for (const auto& s : report->scores()) {
    EXPECT_GE(s.score, 0.0);
    EXPECT_TRUE(std::isfinite(s.score));
  }

  // pivots >= node count degenerates to the exact computation.
  measures::ContextOptions saturated = sampled_options;
  saturated.betweenness_pivots = 100000;
  auto exact_like = measures::EvolutionContext::FromVersions(
      *scenario.vkb, 0, 1, saturated);
  auto exact = measures::EvolutionContext::FromVersions(*scenario.vkb, 0, 1);
  ASSERT_TRUE(exact_like.ok());
  ASSERT_TRUE(exact.ok());
  const auto& a = exact_like->betweenness_after();
  const auto& b = exact->betweenness_after();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

}  // namespace
}  // namespace evorec

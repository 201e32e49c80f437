// Cross-module property suites on randomly generated workloads:
// archive equivalence, serialisation round trips, and context
// configuration invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "evorec.h"

namespace evorec {
namespace {

class HistoryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryPropertyTest,
                         ::testing::Values(2, 11, 31, 101));

// Random multi-version histories: every pinned snapshot must equal its
// delta-chain reconstruction (the base plus the archived change sets,
// replayed), and a second KB fed the same history through the
// commit-log wire format must agree on every snapshot.
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
  const std::string log_path = ::testing::TempDir() +
                               "evorec_history_property_" +
                               std::to_string(seed) + ".evlog";
  std::remove(log_path.c_str());
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  full.AttachCommitLog(&*log);
  for (uint32_t v = 0; v < 4; ++v) {
    auto head = full.Snapshot(full.head());
    ASSERT_TRUE(head.ok());
    workload::EvolutionOptions evolution_options;
    evolution_options.operations = 80;
    evolution_options.seed = seed + 10 + v;
    evolution_options.epoch = v + 1;
    const workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, full.dictionary(), evolution_options);
    ASSERT_TRUE(full.Commit(outcome.changes, "t", "step").ok());
  }
  ASSERT_TRUE(log->Close().ok());

  // Ship every commit through the log codec so the test also covers
  // cross-store shipping: each record carries its dictionary tail and
  // its change set in commit order.
  auto wire = ReadFileToString(log_path);
  ASSERT_TRUE(wire.ok());
  std::remove(log_path.c_str());
  const Status replayed = storage::ReplayLog(
      *wire, [&shipped](storage::DeltaRecord&& record) -> Status {
        for (size_t i = 0; i < record.new_terms.size(); ++i) {
          if (shipped.dictionary().Intern(record.new_terms[i]) !=
              record.first_term_id + i) {
            return InternalError("dictionary tail out of step");
          }
        }
        version::ChangeSet changes;
        changes.additions = std::move(record.additions);
        changes.removals = std::move(record.removals);
        return shipped.Commit(std::move(changes), "t", "step").status();
      });
  ASSERT_TRUE(replayed.ok()) << replayed.ToString();

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

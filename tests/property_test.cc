// Parameterized property suites: invariants that must hold across
// seeds, scales and parameter grids (TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "evorec.h"

namespace evorec {
namespace {

// ------------------------------------------------- delta properties

class DeltaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPropertyTest,
                         ::testing::Values(1, 7, 23, 99, 1234));

// δ applied to V1 reproduces V2; δ reversed restores V1 (the
// synchronisation property low-level deltas exist for, §II.a / [2]).
TEST_P(DeltaPropertyTest, DeltaIsInvertibleTransformation) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 40;
  schema_options.seed = GetParam();
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 300;
  instance_options.edge_count = 400;
  instance_options.seed = GetParam() + 1;
  workload::PopulateInstances(generated, instance_options);

  workload::EvolutionOptions evolution_options;
  evolution_options.operations = 150;
  evolution_options.seed = GetParam() + 2;
  const workload::EvolutionOutcome outcome = workload::GenerateEvolution(
      generated.kb, generated.kb.dictionary(), evolution_options);

  rdf::KnowledgeBase after = generated.kb;
  after.store().AddAll(outcome.changes.additions);
  for (const rdf::Triple& t : outcome.changes.removals) {
    after.store().Remove(t);
  }

  const delta::LowLevelDelta delta =
      delta::ComputeLowLevelDelta(generated.kb, after);
  // Forward: V1 + δ = V2.
  rdf::KnowledgeBase forward = generated.kb;
  forward.store().AddAll(delta.added);
  for (const rdf::Triple& t : delta.removed) forward.store().Remove(t);
  EXPECT_EQ(forward.store().Match(rdf::TriplePattern{}),
            after.store().Match(rdf::TriplePattern{}));
  // Backward: V2 − δ = V1.
  rdf::KnowledgeBase backward = after;
  backward.store().AddAll(delta.removed);
  for (const rdf::Triple& t : delta.added) backward.store().Remove(t);
  EXPECT_EQ(backward.store().Match(rdf::TriplePattern{}),
            generated.kb.store().Match(rdf::TriplePattern{}));
}

// |δ(n)| summed over direct attribution never exceeds 3·|δ| (each
// triple has ≤ 3 distinct terms) and neighborhood counts are sums of
// member counts.
TEST_P(DeltaPropertyTest, AttributionMassIsBounded) {
  workload::Scenario scenario;
  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.instances = 200;
  scale.edges = 300;
  scale.versions = 1;
  scale.operations = 100;
  scenario = workload::MakeDbpediaLike(GetParam(), scale);
  auto ctx = measures::EvolutionContext::FromVersions(*scenario.vkb, 0, 1);
  ASSERT_TRUE(ctx.ok());
  const auto& index = ctx->delta_index();
  size_t direct_mass = 0;
  for (rdf::TermId cls : ctx->union_classes()) {
    direct_mass += index.DirectChanges(cls);
    // Neighborhood aggregation identity.
    size_t expected = 0;
    for (rdf::TermId neighbor : index.UnionNeighborhood(cls)) {
      expected += index.ExtendedChanges(neighbor);
    }
    EXPECT_EQ(index.NeighborhoodChanges(cls), expected);
  }
  EXPECT_LE(direct_mass, 3 * index.total_changes());
}

// ---------------------------------------------- measure properties

class MeasurePropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MeasurePropertyTest,
                         ::testing::Values(3, 17, 71));

// Every registered measure: non-negative scores, full universe
// coverage for class-scoped measures, and zero report on an identity
// transition.
TEST_P(MeasurePropertyTest, MeasureInvariants) {
  workload::ScenarioScale scale;
  scale.classes = 35;
  scale.instances = 250;
  scale.edges = 400;
  scale.versions = 2;
  scale.operations = 120;
  workload::Scenario scenario =
      workload::MakeDbpediaLike(GetParam(), scale);
  auto ctx = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  ASSERT_TRUE(ctx.ok());
  auto identity = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head(), scenario.vkb->head());
  ASSERT_TRUE(identity.ok());

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (const auto& measure : registry.CreateAll()) {
    auto report = measure->Compute(*ctx);
    ASSERT_TRUE(report.ok()) << measure->info().name;
    for (const auto& s : report->scores()) {
      EXPECT_GE(s.score, 0.0) << measure->info().name;
      EXPECT_TRUE(std::isfinite(s.score)) << measure->info().name;
    }
    if (measure->info().scope == measures::MeasureScope::kClass) {
      EXPECT_EQ(report->size(), ctx->union_classes().size())
          << measure->info().name;
    }
    auto zero_report = measure->Compute(*identity);
    ASSERT_TRUE(zero_report.ok());
    EXPECT_DOUBLE_EQ(zero_report->TotalScore(), 0.0)
        << measure->info().name << " must vanish on identity transition";
  }
}

// -------------------------------------------- anonymity properties

struct AnonymityParam {
  uint64_t seed;
  size_t k;
};

class AnonymityPropertyTest
    : public ::testing::TestWithParam<AnonymityParam> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, AnonymityPropertyTest,
    ::testing::Values(AnonymityParam{1, 2}, AnonymityParam{1, 5},
                      AnonymityParam{2, 10}, AnonymityParam{3, 25},
                      AnonymityParam{4, 3}, AnonymityParam{5, 50}),
    [](const auto& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_k" +
             std::to_string(param_info.param.k);
    });

// The anonymiser's guarantee holds on arbitrary generated tables:
// output is k-anonymous, suppressed+kept individuals equal the input,
// and information loss is in [0,1].
TEST_P(AnonymityPropertyTest, AnonymizerGuarantee) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  anonymity::AggregateTable table({"class", "region"}, "changes");
  anonymity::ValueHierarchy classes;
  anonymity::ValueHierarchy regions;
  for (int c = 0; c < 8; ++c) {
    classes.AddParent("C" + std::to_string(c),
                      "Super" + std::to_string(c % 2));
  }
  classes.AddParent("Super0", "Any");
  classes.AddParent("Super1", "Any");
  for (int r = 0; r < 4; ++r) {
    regions.AddParent("R" + std::to_string(r), "Country");
  }
  const size_t rows = 20 + static_cast<size_t>(rng.UniformInt(0, 20));
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(
        table
            .AddRow({"C" + std::to_string(rng.UniformInt(0, 7)),
                     "R" + std::to_string(rng.UniformInt(0, 3))},
                    rng.UniformDouble(0, 50),
                    static_cast<size_t>(rng.UniformInt(1, 6)))
            .ok());
  }

  auto result = anonymity::Anonymize(table, k, {classes, regions});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(anonymity::IsKAnonymous(result->table, k));
  EXPECT_EQ(result->table.TotalCount() + result->suppressed_count,
            table.TotalCount());
  EXPECT_GE(result->information_loss, 0.0);
  EXPECT_LE(result->information_loss, 1.0);
  if (!result->table.rows().empty()) {
    EXPECT_LE(anonymity::ReidentificationRisk(result->table),
              1.0 / static_cast<double>(k));
  }
}

// -------------------------------------------- diversity properties

class DiversityPropertyTest : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Lambdas, DiversityPropertyTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

// MMR across the λ grid: selections are distinct indices of the pool,
// and the achieved objective is never worse than picking the top-k by
// relevance (MMR optimises a superset of that strategy greedily).
TEST_P(DiversityPropertyTest, MmrDominatesNaiveTopK) {
  const double lambda = GetParam();
  Rng rng(11);
  std::vector<recommend::MeasureCandidate> pool;
  for (int i = 0; i < 20; ++i) {
    recommend::MeasureCandidate c;
    c.id = "c" + std::to_string(i);
    c.measure.category =
        static_cast<measures::MeasureCategory>(i % 3);
    for (int t = 0; t < 5; ++t) {
      c.top_terms.push_back(
          static_cast<rdf::TermId>(rng.UniformInt(0, 14)));
    }
    pool.push_back(std::move(c));
  }
  std::vector<double> relevance;
  for (int i = 0; i < 20; ++i) relevance.push_back(rng.UniformDouble());

  const auto selected = recommend::SelectMmr(
      pool, relevance, 6, lambda, recommend::DiversityKind::kContent);
  ASSERT_EQ(selected.size(), 6u);
  std::set<size_t> uniq(selected.begin(), selected.end());
  EXPECT_EQ(uniq.size(), 6u);

  // Naive top-k by relevance.
  std::vector<size_t> naive(20);
  std::iota(naive.begin(), naive.end(), 0);
  std::sort(naive.begin(), naive.end(), [&](size_t a, size_t b) {
    return relevance[a] > relevance[b];
  });
  naive.resize(6);

  const double mmr_objective = recommend::MmrObjective(
      pool, relevance, selected, lambda, recommend::DiversityKind::kContent);
  const double naive_objective = recommend::MmrObjective(
      pool, relevance, naive, lambda, recommend::DiversityKind::kContent);
  // Greedy MMR with swap-improvement dominates the naive set under its
  // own objective; plain greedy can tie at λ=1.
  const auto improved = recommend::ImproveBySwaps(
      pool, relevance, selected, lambda, recommend::DiversityKind::kContent);
  const double improved_objective =
      recommend::MmrObjective(pool, relevance, improved, lambda,
                              recommend::DiversityKind::kContent);
  EXPECT_GE(improved_objective + 1e-9, naive_objective);
  EXPECT_GE(improved_objective + 1e-9, mmr_objective);
}

// ---------------------------------------------- fairness properties

class FairnessPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessPropertyTest,
                         ::testing::Values(2, 13, 29, 47));

// On random utility matrices the fair package never has a lower
// minimum satisfaction than any aggregation-greedy package.
TEST_P(FairnessPropertyTest, FairPackageMaximisesMinSatisfaction) {
  Rng rng(GetParam());
  const size_t members = 2 + static_cast<size_t>(rng.UniformInt(0, 4));
  const size_t candidates = 8 + static_cast<size_t>(rng.UniformInt(0, 8));
  recommend::UtilityMatrix utilities(members,
                                     std::vector<double>(candidates));
  for (auto& row : utilities) {
    for (double& u : row) u = rng.UniformDouble();
  }
  const size_t k = 3;
  const auto fair = recommend::SelectFairPackage(utilities, k);
  const double fair_min =
      recommend::EvaluatePackage(utilities, fair).min_satisfaction;
  for (auto aggregation : {recommend::GroupAggregation::kAverage,
                           recommend::GroupAggregation::kLeastMisery,
                           recommend::GroupAggregation::kMostPleasure}) {
    const auto greedy =
        recommend::SelectByAggregation(utilities, k, aggregation);
    const double greedy_min =
        recommend::EvaluatePackage(utilities, greedy).min_satisfaction;
    EXPECT_GE(fair_min + 1e-9, greedy_min);
  }
}

// ------------------------------------------ relatedness properties

class RelatednessPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RelatednessPropertyTest,
                         ::testing::Values(5, 19, 53));

// Scores are bounded in [0,1]; adding interest in a candidate's terms
// never lowers its score (monotonicity).
TEST_P(RelatednessPropertyTest, BoundedAndMonotone) {
  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.instances = 150;
  scale.edges = 250;
  scale.versions = 1;
  scale.operations = 80;
  workload::Scenario scenario =
      workload::MakeDbpediaLike(GetParam(), scale);
  auto ctx = measures::EvolutionContext::FromVersions(*scenario.vkb, 0, 1);
  ASSERT_TRUE(ctx.ok());
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  auto pool = recommend::GenerateCandidates(registry, *ctx, {});
  ASSERT_TRUE(pool.ok());
  ASSERT_FALSE(pool->empty());

  recommend::RelatednessScorer scorer(*ctx, {});
  profile::HumanProfile prof("p");
  // Random sparse interests. One interest is pinned at weight 1.0 so
  // the expansion's max-normalisation is stable under boosting — the
  // precondition for the monotonicity property below.
  Rng rng(GetParam() + 7);
  const auto& classes = ctx->union_classes();
  for (int i = 0; i < 3; ++i) {
    prof.SetInterest(
        classes[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(classes.size()) - 1))],
        rng.UniformDouble(0.2, 1.0));
  }
  prof.SetInterest(classes[0], 1.0);  // pin the max weight
  for (const auto& candidate : *pool) {
    const double base = scorer.Score(prof, candidate);
    EXPECT_GE(base, 0.0);
    EXPECT_LE(base, 1.0);
    if (candidate.top_terms.empty()) continue;
    profile::HumanProfile boosted = prof;
    boosted.SetInterest(candidate.top_terms[0], 1.0);
    EXPECT_GE(scorer.Score(boosted, candidate) + 1e-9, base)
        << candidate.id;
  }
}

}  // namespace
}  // namespace evorec

// Engine layer: shared-evaluation caching, memoized reports, batched
// serving, and the determinism guarantee that RecommendBatch is
// byte-identical to sequential per-user Recommend calls.

#include "engine/evaluation_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "engine/recommendation_service.h"
#include "measures/change_count.h"
#include "workload/scenarios.h"

namespace evorec::engine {
namespace {

workload::Scenario SmallScenario(uint64_t seed = 7) {
  workload::ScenarioScale scale;
  scale.classes = 40;
  scale.properties = 14;
  scale.instances = 300;
  scale.edges = 600;
  scale.versions = 2;
  scale.operations = 120;
  return workload::MakeDbpediaLike(seed, scale);
}

// Full structural comparison of two delivered lists, including the
// rendered explanation text and the provenance trail ordering.
void ExpectIdenticalLists(const recommend::RecommendationList& a,
                          const recommend::RecommendationList& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    const recommend::RecommendationItem& x = a.items[i];
    const recommend::RecommendationItem& y = b.items[i];
    EXPECT_EQ(x.candidate.id, y.candidate.id);
    EXPECT_EQ(x.candidate.top_terms, y.candidate.top_terms);
    EXPECT_EQ(x.candidate.report.scores().size(),
              y.candidate.report.scores().size());
    EXPECT_EQ(x.relatedness, y.relatedness);
    EXPECT_EQ(x.novelty, y.novelty);
    EXPECT_EQ(x.explanation.ToText(), y.explanation.ToText());
  }
  EXPECT_EQ(a.set_diversity, b.set_diversity);
  EXPECT_EQ(a.category_coverage, b.category_coverage);
  EXPECT_EQ(a.candidate_pool_size, b.candidate_pool_size);
  EXPECT_EQ(a.redacted_terms, b.redacted_terms);
  EXPECT_EQ(a.dropped_candidates, b.dropped_candidates);
  EXPECT_EQ(a.provenance_trail, b.provenance_trail);
}

TEST(EvaluationEngineTest, SecondEvaluateHitsTheCache) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 4,
                                     .threads = 2});

  auto first = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same shared evaluation

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.contexts_built, 1u);
  EXPECT_EQ(stats.context_misses, 1u);
  EXPECT_EQ(stats.context_hits, 1u);
}

TEST(EvaluationEngineTest, DistinctPairsAndOptionsGetDistinctEntries) {
  workload::Scenario scenario = SmallScenario();
  ASSERT_GE(scenario.vkb->version_count(), 3u);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 8,
                                     .threads = 1});

  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1).ok());
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 1, 2).ok());
  measures::ContextOptions sampled;
  sampled.betweenness_mode = measures::BetweennessMode::kSampled;
  sampled.betweenness_pivots = 8;
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1, sampled).ok());
  EXPECT_EQ(engine.stats().contexts_built, 3u);
  EXPECT_EQ(engine.cached_contexts(), 3u);
}

TEST(EvaluationEngineTest, LruEvictsLeastRecentlyUsed) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 1,
                                     .threads = 1});

  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1).ok());
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 1, 2).ok());  // evicts (0,1)
  EXPECT_EQ(engine.stats().context_evictions, 1u);
  EXPECT_EQ(engine.cached_contexts(), 1u);
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1).ok());  // rebuild
  EXPECT_EQ(engine.stats().contexts_built, 3u);
}

TEST(EvaluationEngineTest, EqualHistoriesShareFingerprintsAcrossInstances) {
  workload::Scenario a = SmallScenario(21);
  workload::Scenario b = SmallScenario(21);
  auto ha = a.vkb->Handle(1);
  auto hb = b.vkb->Handle(1);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(ha->fingerprint, hb->fingerprint);

  workload::Scenario c = SmallScenario(22);
  auto hc = c.vkb->Handle(1);
  ASSERT_TRUE(hc.ok());
  EXPECT_NE(ha->fingerprint, hc->fingerprint);
}

TEST(EvaluationEngineTest, ReportsAreMemoizedPerContext) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 4,
                                     .threads = 2});

  auto evaluation = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok());
  auto first = (*evaluation)->AllReports();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), registry.size());
  auto second = (*evaluation)->AllReports();
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].get(), (*second)[i].get());  // same object
  }
  const measures::ReportCacheStats stats = (*evaluation)->report_stats();
  EXPECT_EQ(stats.computations, registry.size());
  EXPECT_GE(stats.hits, registry.size());

  auto by_name = (*evaluation)->Report("class_change_count");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ((*evaluation)->report_stats().computations, registry.size());
}

// Class change count whose first Compute, across every instance the
// registry creates, fails: the probe for "failures are not memoised".
class FailsOnceMeasure final : public measures::EvolutionMeasure {
 public:
  explicit FailsOnceMeasure(std::shared_ptr<std::atomic<int>> calls)
      : calls_(std::move(calls)) {}

  const measures::MeasureInfo& info() const override { return inner_.info(); }

  Result<measures::MeasureReport> Compute(
      const measures::EvolutionContext& ctx) const override {
    if (calls_->fetch_add(1) == 0) return InternalError("first compute");
    return inner_.Compute(ctx);
  }

 private:
  measures::ClassChangeCountMeasure inner_;
  std::shared_ptr<std::atomic<int>> calls_;
};

measures::MeasureRegistry FailsOnceRegistry() {
  measures::MeasureRegistry registry;
  auto calls = std::make_shared<std::atomic<int>>(0);
  EXPECT_TRUE(registry
                  .Register([calls] {
                    return std::make_unique<FailsOnceMeasure>(calls);
                  })
                  .ok());
  return registry;
}

TEST(EvaluationEngineTest, FailedReportIsNotMemoized) {
  workload::Scenario scenario = SmallScenario();
  const measures::MeasureRegistry registry = FailsOnceRegistry();
  EvaluationEngine engine(registry, {.threads = 1});
  auto evaluation = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok()) << evaluation.status().ToString();

  EXPECT_FALSE((*evaluation)->Report("class_change_count").ok());
  auto retried = (*evaluation)->Report("class_change_count");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_FALSE((*retried)->empty());
  EXPECT_EQ((*evaluation)->report_stats().computations, 2u);
}

TEST(EvaluationEngineTest, FailedAllReportsIsNotMemoized) {
  workload::Scenario scenario = SmallScenario();
  const measures::MeasureRegistry registry = FailsOnceRegistry();
  EvaluationEngine engine(registry, {.threads = 2});
  auto evaluation = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok()) << evaluation.status().ToString();

  EXPECT_FALSE((*evaluation)->AllReports().ok());
  auto retried = (*evaluation)->AllReports();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_EQ(retried->size(), 1u);
  EXPECT_EQ((*evaluation)->report_stats().computations, 2u);
}

TEST(EvaluationEngineTest, FailedSharedStateIsNotMemoized) {
  workload::Scenario scenario = SmallScenario();
  const measures::MeasureRegistry registry = FailsOnceRegistry();
  EvaluationEngine engine(registry, {.threads = 1});
  const recommend::Recommender recommender(registry, {});
  auto evaluation = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok()) << evaluation.status().ToString();

  EXPECT_FALSE((*evaluation)->SharedStateFor(recommender).ok());
  auto retried = (*evaluation)->SharedStateFor(recommender);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_NE(*retried, nullptr);
  EXPECT_EQ((*evaluation)->report_stats().computations, 2u);
  auto again = (*evaluation)->SharedStateFor(recommender);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), retried->get());
}

TEST(RecommendationServiceTest, BatchMatchesSequentialRecommend) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();

  // Sequential baseline: fresh recommender, fresh contexts, one
  // Recommend per user — the paper's per-call processing model.
  workload::Scenario baseline_scenario = SmallScenario(31);
  std::vector<profile::HumanProfile> baseline_profiles;
  for (const profile::HumanProfile& member :
       baseline_scenario.curators.members()) {
    baseline_profiles.push_back(member);
  }
  baseline_profiles.push_back(baseline_scenario.end_user);

  recommend::RecommenderOptions rec_options;
  rec_options.package_size = 4;
  rec_options.novelty_weight = 0.3;
  recommend::Recommender recommender(registry, rec_options);
  std::vector<recommend::RecommendationList> expected;
  for (profile::HumanProfile& prof : baseline_profiles) {
    auto ctx = measures::EvolutionContext::FromVersions(
        *baseline_scenario.vkb, 0, 1);
    ASSERT_TRUE(ctx.ok());
    auto list = recommender.RecommendForUser(*ctx, prof);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    expected.push_back(std::move(list).value());
  }

  // Batched serving over identical inputs (same seeds regenerate the
  // same scenario and profiles).
  workload::Scenario scenario = SmallScenario(31);
  std::vector<profile::HumanProfile> profiles;
  for (const profile::HumanProfile& member : scenario.curators.members()) {
    profiles.push_back(member);
  }
  profiles.push_back(scenario.end_user);
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);

  ServiceOptions service_options;
  service_options.recommender = rec_options;
  service_options.engine.threads = 4;
  RecommendationService service(registry, service_options);
  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectIdenticalLists((*batch)[i], expected[i]);
  }
  // Delivery bookkeeping matches too.
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].seen_count(), baseline_profiles[i].seen_count());
  }
  // The whole batch shared one context build.
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);
}

TEST(RecommendationServiceTest, BatchWithProvenanceMatchesSequentialTrail) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  recommend::RecommenderOptions rec_options;
  rec_options.package_size = 3;

  // Sequential baseline with a store: records land per user, in user
  // order.
  workload::Scenario baseline_scenario = SmallScenario(47);
  std::vector<profile::HumanProfile> baseline_profiles(
      baseline_scenario.curators.members());
  provenance::ProvenanceStore baseline_store;
  recommend::Recommender recommender(registry, rec_options);
  recommender.AttachProvenance(&baseline_store);
  std::vector<recommend::RecommendationList> expected;
  for (profile::HumanProfile& prof : baseline_profiles) {
    auto ctx = measures::EvolutionContext::FromVersions(
        *baseline_scenario.vkb, 0, 1);
    ASSERT_TRUE(ctx.ok());
    auto list = recommender.RecommendForUser(*ctx, prof);
    ASSERT_TRUE(list.ok());
    expected.push_back(std::move(list).value());
  }

  // Batched serving with a store: workers trace into private scratch
  // stores that are spliced in request order, so record ids and trail
  // ordering stay identical to the sequential path.
  workload::Scenario scenario = SmallScenario(47);
  std::vector<profile::HumanProfile> profiles(scenario.curators.members());
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);
  provenance::ProvenanceStore store;
  ServiceOptions service_options;
  service_options.recommender = rec_options;
  service_options.engine.threads = 4;
  RecommendationService service(registry, service_options);
  service.AttachProvenance(&store);
  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectIdenticalLists((*batch)[i], expected[i]);
    EXPECT_FALSE((*batch)[i].provenance_trail.empty());
  }
  EXPECT_EQ(store.size(), baseline_store.size());
}

TEST(RecommendationServiceTest, GroupBatchMatchesSequentialGroupRecommend) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  recommend::RecommenderOptions rec_options;
  rec_options.package_size = 3;
  rec_options.group.fairness_aware = true;

  workload::Scenario baseline_scenario = SmallScenario(53);
  recommend::Recommender recommender(registry, rec_options);
  auto ctx =
      measures::EvolutionContext::FromVersions(*baseline_scenario.vkb, 0, 1);
  ASSERT_TRUE(ctx.ok());
  auto expected =
      recommender.RecommendForGroup(*ctx, baseline_scenario.curators);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  workload::Scenario scenario = SmallScenario(53);
  ServiceOptions service_options;
  service_options.recommender = rec_options;
  RecommendationService service(registry, service_options);
  std::vector<profile::Group*> groups{&scenario.curators};
  auto batch = service.RecommendGroupBatch(*scenario.vkb, 0, 1, groups);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  ExpectIdenticalLists((*batch)[0], *expected);
  EXPECT_EQ((*batch)[0].fairness.mean_satisfaction,
            expected->fairness.mean_satisfaction);
}

TEST(RecommendationServiceTest, WarmBatchDoesZeroRedundantContextBuilds) {
  workload::Scenario scenario = SmallScenario(61);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, {});

  // 64 distinct users against one pair.
  std::vector<profile::HumanProfile> profiles;
  for (int i = 0; i < 64; ++i) {
    profile::HumanProfile prof = scenario.end_user;
    prof.set_id("user-" + std::to_string(i));
    profiles.push_back(std::move(prof));
  }
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);

  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 64u);
  const EngineStats stats = service.engine_stats();
  EXPECT_EQ(stats.contexts_built, 1u);
  EXPECT_EQ(stats.context_misses, 1u);
  // Every measure computed exactly once for the whole batch.
  auto evaluation = service.engine().Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok());
  EXPECT_EQ((*evaluation)->report_stats().computations, registry.size());

  // A second batch over the same pair is fully warm.
  auto again = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);
}

TEST(RecommendationServiceTest, RejectsNullProfiles) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, {});
  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, {nullptr});
  EXPECT_FALSE(batch.ok());
}

// A repeated entry would have two pool workers deliver to one profile
// (or group) at once — a race on its seen-history — so batches reject
// it before admission, before any context build, and before anyone's
// seen-history changes.
TEST(RecommendationServiceTest, RejectsRepeatedProfilesBeforeAdmission) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  ServiceOptions options;
  options.overload.admission_enabled = true;
  RecommendationService service(registry, options);
  profile::HumanProfile alice = scenario.end_user;
  profile::HumanProfile bob = scenario.end_user;
  auto batch =
      service.RecommendBatch(*scenario.vkb, 0, 1, {&alice, &bob, &alice});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.admission_stats().admitted(), 0u);
  EXPECT_EQ(service.engine_stats().context_misses, 0u);
  EXPECT_EQ(alice.seen_count(), scenario.end_user.seen_count());
}

TEST(RecommendationServiceTest, RejectsRepeatedGroupsBeforeAdmission) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  ServiceOptions options;
  options.overload.admission_enabled = true;
  RecommendationService service(registry, options);
  profile::Group curators = scenario.curators;
  profile::Group reviewers = scenario.curators;
  auto batch = service.RecommendGroupBatch(*scenario.vkb, 0, 1,
                                           {&curators, &reviewers, &curators});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.admission_stats().admitted(), 0u);
  EXPECT_EQ(service.engine_stats().context_misses, 0u);
}

TEST(RecommendationServiceTest, UnknownVersionFails) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, {});
  profile::HumanProfile prof = scenario.end_user;
  auto list = service.Recommend(*scenario.vkb, 0, 99, prof);
  EXPECT_FALSE(list.ok());
}

}  // namespace
}  // namespace evorec::engine

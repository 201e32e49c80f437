#include "workload/schema_generator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "delta/low_level_delta.h"
#include "schema/schema_view.h"
#include "workload/evolution_generator.h"
#include "workload/instance_generator.h"
#include "workload/profile_generator.h"
#include "workload/scenarios.h"

namespace evorec::workload {
namespace {

TEST(SchemaGeneratorTest, GeneratesRequestedShape) {
  SchemaGenOptions options;
  options.class_count = 50;
  options.property_count = 20;
  options.root_count = 2;
  const GeneratedSchema generated = GenerateSchema(options);
  EXPECT_EQ(generated.classes.size(), 50u);
  EXPECT_EQ(generated.properties.size(), 20u);

  const schema::SchemaView view = schema::SchemaView::Build(generated.kb);
  EXPECT_EQ(view.classes().size(), 50u);
  EXPECT_EQ(view.properties().size(), 20u);
  EXPECT_TRUE(view.hierarchy().IsAcyclic());
  EXPECT_EQ(view.hierarchy().Roots().size(), 2u);
  // Every property has exactly one domain and range.
  for (rdf::TermId property : generated.properties) {
    EXPECT_EQ(view.DomainsOf(property).size(), 1u);
    EXPECT_EQ(view.RangesOf(property).size(), 1u);
  }
}

TEST(SchemaGeneratorTest, DeterministicPerSeed) {
  SchemaGenOptions options;
  options.seed = 5;
  const GeneratedSchema a = GenerateSchema(options);
  const GeneratedSchema b = GenerateSchema(options);
  EXPECT_EQ(a.kb.store().Match(rdf::TriplePattern{}),
            b.kb.store().Match(rdf::TriplePattern{}));
  options.seed = 6;
  const GeneratedSchema c = GenerateSchema(options);
  EXPECT_NE(a.kb.store().Match(rdf::TriplePattern{}),
            c.kb.store().Match(rdf::TriplePattern{}));
}

TEST(InstanceGeneratorTest, PopulatesSkewedInstances) {
  SchemaGenOptions schema_options;
  schema_options.class_count = 30;
  GeneratedSchema generated = GenerateSchema(schema_options);
  InstanceGenOptions options;
  options.instance_count = 1000;
  options.edge_count = 1500;
  const GeneratedInstances instances = PopulateInstances(generated, options);
  EXPECT_EQ(instances.instance_count, 1000u);
  EXPECT_GT(instances.edge_count, 0u);

  // Skew: the largest class holds well over the uniform share.
  size_t largest = 0;
  for (const auto& [cls, list] : instances.instances_by_class) {
    (void)cls;
    largest = std::max(largest, list.size());
  }
  EXPECT_GT(largest, 1000u / 30u * 3u);

  // Instance edges respect the declared schema (spot check via view).
  const schema::SchemaView view = schema::SchemaView::Build(generated.kb);
  EXPECT_FALSE(view.connections().empty());
}

TEST(EvolutionGeneratorTest, ChangeSetIsConsistentWithSnapshot) {
  SchemaGenOptions schema_options;
  schema_options.class_count = 40;
  GeneratedSchema generated = GenerateSchema(schema_options);
  InstanceGenOptions instance_options;
  instance_options.instance_count = 300;
  instance_options.edge_count = 500;
  PopulateInstances(generated, instance_options);

  EvolutionOptions options;
  options.operations = 200;
  const EvolutionOutcome outcome = GenerateEvolution(
      generated.kb, generated.kb.dictionary(), options);
  EXPECT_FALSE(outcome.changes.empty());
  EXPECT_FALSE(outcome.hot_classes.empty());

  // Every removal names a triple of the base snapshot; no addition
  // already exists.
  for (const rdf::Triple& t : outcome.changes.removals) {
    EXPECT_TRUE(generated.kb.store().Contains(t));
  }
  for (const rdf::Triple& t : outcome.changes.additions) {
    EXPECT_FALSE(generated.kb.store().Contains(t));
  }
  // No triple both added and removed.
  std::vector<rdf::Triple> overlap;
  std::set_intersection(outcome.changes.additions.begin(),
                        outcome.changes.additions.end(),
                        outcome.changes.removals.begin(),
                        outcome.changes.removals.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
}

TEST(EvolutionGeneratorTest, HotspotsAttractMostOperations) {
  SchemaGenOptions schema_options;
  schema_options.class_count = 60;
  GeneratedSchema generated = GenerateSchema(schema_options);
  InstanceGenOptions instance_options;
  instance_options.instance_count = 600;
  PopulateInstances(generated, instance_options);

  EvolutionOptions options;
  options.operations = 500;
  options.hotspot_fraction = 0.8;
  options.hotspot_count = 3;
  const EvolutionOutcome outcome = GenerateEvolution(
      generated.kb, generated.kb.dictionary(), options);

  size_t hot_ops = 0;
  size_t total_ops = 0;
  for (const auto& [cls, ops] : outcome.ops_per_class) {
    total_ops += ops;
    for (rdf::TermId hot : outcome.hot_classes) {
      if (cls == hot) hot_ops += ops;
    }
  }
  ASSERT_GT(total_ops, 0u);
  // The three planted hot classes (5% of all) should absorb a clear
  // majority share of attributed operations.
  EXPECT_GT(static_cast<double>(hot_ops) / static_cast<double>(total_ops),
            0.4);
}

TEST(EvolutionGeneratorTest, AppliedChangesMatchGroundTruthDirection) {
  SchemaGenOptions schema_options;
  GeneratedSchema generated = GenerateSchema(schema_options);
  InstanceGenOptions instance_options;
  PopulateInstances(generated, instance_options);

  EvolutionOptions options;
  options.operations = 300;
  const EvolutionOutcome outcome = GenerateEvolution(
      generated.kb, generated.kb.dictionary(), options);

  // Apply and verify via low-level delta: the delta equals the change
  // set exactly.
  rdf::KnowledgeBase after = generated.kb;
  after.store().AddAll(outcome.changes.additions);
  for (const rdf::Triple& t : outcome.changes.removals) {
    after.store().Remove(t);
  }
  const delta::LowLevelDelta delta =
      delta::ComputeLowLevelDelta(generated.kb, after);
  EXPECT_EQ(delta.added, outcome.changes.additions);
  EXPECT_EQ(delta.removed, outcome.changes.removals);
}

TEST(ProfileGeneratorTest, InterestsConcentrateOnSubtree) {
  SchemaGenOptions schema_options;
  schema_options.class_count = 60;
  const GeneratedSchema generated = GenerateSchema(schema_options);
  const schema::SchemaView view = schema::SchemaView::Build(generated.kb);
  Rng rng(3);
  ProfileGenOptions options;
  options.interest_count = 8;
  options.subtree_focus = 1.0;  // all interests focal
  rdf::TermId focus = rdf::kAnyTerm;
  const profile::HumanProfile prof =
      GenerateProfile("u", view, options, rng, &focus);
  ASSERT_NE(focus, rdf::kAnyTerm);
  EXPECT_FALSE(prof.interests().empty());
  for (const auto& [term, weight] : prof.interests()) {
    EXPECT_TRUE(view.hierarchy().IsSubclassOf(term, focus))
        << "interest off the focal subtree";
    EXPECT_GT(weight, 0.0);
    EXPECT_LE(weight, 1.0);
  }
}

TEST(ProfileGeneratorTest, GroupOverlapControlsCohesion) {
  SchemaGenOptions schema_options;
  schema_options.class_count = 80;
  const GeneratedSchema generated = GenerateSchema(schema_options);
  const schema::SchemaView view = schema::SchemaView::Build(generated.kb);
  ProfileGenOptions options;
  Rng rng_a(5), rng_b(5);
  const profile::Group disjoint =
      GenerateGroup("g0", 6, 0.0, view, options, rng_a);
  const profile::Group overlapping =
      GenerateGroup("g1", 6, 1.0, view, options, rng_b);
  EXPECT_EQ(disjoint.size(), 6u);
  EXPECT_GT(overlapping.Cohesion(), disjoint.Cohesion());
}

TEST(ScenarioTest, PresetsProduceCommittedHistory) {
  ScenarioScale scale;
  scale.classes = 30;
  scale.instances = 200;
  scale.edges = 300;
  scale.versions = 2;
  scale.operations = 80;
  for (auto make : {MakeDbpediaLike, MakeClinicalKb, MakeSocialFeed}) {
    const Scenario scenario = make(19, scale);
    EXPECT_FALSE(scenario.name.empty());
    EXPECT_GE(scenario.vkb->version_count(), 3u);  // base + ≥2
    EXPECT_FALSE(scenario.hot_classes.empty());
    EXPECT_EQ(scenario.curators.size(), 5u);
    auto head = scenario.vkb->Snapshot(scenario.vkb->head());
    ASSERT_TRUE(head.ok());
    EXPECT_GT((*head)->size(), 0u);
  }
}

// Generating a transition reads the head version with merged scans, so
// no stored version is left holding a whole-store flat copy.
TEST(ScenarioTest, StoredVersionsHoldNoFlatCopy) {
  ScenarioScale scale;
  scale.classes = 30;
  scale.instances = 200;
  scale.edges = 300;
  scale.versions = 4;
  scale.operations = 80;
  const Scenario scenario = MakeDbpediaLike(7, scale);
  for (version::VersionId v = 0; v <= scenario.vkb->head(); ++v) {
    auto snapshot = scenario.vkb->Snapshot(v);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ((*snapshot)->store().stats().materializations, 0u) << v;
  }
}

TEST(ScenarioTest, ClinicalKbHasEnforceablePolicy) {
  ScenarioScale scale;
  scale.classes = 30;
  scale.instances = 200;
  scale.edges = 300;
  scale.versions = 2;
  scale.operations = 80;
  const Scenario scenario = MakeClinicalKb(29, scale);
  ASSERT_FALSE(scenario.sensitive_classes.empty());
  for (rdf::TermId cls : scenario.sensitive_classes) {
    EXPECT_FALSE(scenario.policy.CheckAccess("random_analyst", cls).ok());
    EXPECT_TRUE(scenario.policy.CheckAccess("dpo", cls).ok());
  }
}

}  // namespace
}  // namespace evorec::workload

#include "workload/scenarios.h"

#include "common/random.h"
#include "schema/schema_view.h"
#include "workload/instance_generator.h"
#include "workload/profile_generator.h"
#include "workload/schema_generator.h"

namespace evorec::workload {

namespace {

// Shared assembly: schema + instances + `scale.versions` committed
// transitions with the given mix. Ground truth captured from the last
// transition.
Scenario Assemble(const std::string& name, uint64_t seed,
                  const ScenarioScale& scale, const ChangeMix& mix,
                  double hotspot_fraction,
                  const std::string& namespace_prefix) {
  Scenario scenario;
  scenario.name = name;

  SchemaGenOptions schema_options;
  schema_options.class_count = scale.classes;
  schema_options.property_count = scale.properties;
  schema_options.namespace_prefix = namespace_prefix;
  schema_options.seed = seed;
  GeneratedSchema generated = GenerateSchema(schema_options);

  InstanceGenOptions instance_options;
  instance_options.instance_count = scale.instances;
  instance_options.edge_count = scale.edges;
  instance_options.seed = seed + 1;
  PopulateInstances(generated, instance_options);

  scenario.classes = generated.classes;
  scenario.properties = generated.properties;
  scenario.vkb = std::make_unique<version::VersionedKnowledgeBase>(
      std::move(generated.kb));

  for (size_t v = 0; v < scale.versions; ++v) {
    auto head = scenario.vkb->Snapshot(scenario.vkb->head());
    EvolutionOptions evolution_options;
    evolution_options.operations = scale.operations;
    evolution_options.mix = mix;
    evolution_options.hotspot_fraction = hotspot_fraction;
    evolution_options.epoch = v + 1;
    evolution_options.fresh_prefix = namespace_prefix;
    evolution_options.seed = seed + 100 + v;
    EvolutionOutcome outcome = GenerateEvolution(
        **head, scenario.vkb->dictionary(), evolution_options);
    (void)scenario.vkb->Commit(std::move(outcome.changes), "generator",
                               name + " transition " + std::to_string(v + 1),
                               /*timestamp=*/v + 1);
    if (v + 1 == scale.versions) {
      scenario.hot_classes = outcome.hot_classes;
      scenario.ops_per_class = outcome.ops_per_class;
    }
  }

  // Profiles are built against the head snapshot's schema.
  auto head = scenario.vkb->Snapshot(scenario.vkb->head());
  const schema::SchemaView view = schema::SchemaView::Build(**head);
  Rng rng(seed + 1000);
  ProfileGenOptions profile_options;
  scenario.curators =
      GenerateGroup(name + "/curators", 5, 0.3, view, profile_options, rng);
  scenario.end_user =
      GenerateProfile(name + "/user", view, profile_options, rng);
  return scenario;
}

}  // namespace

Scenario MakeDbpediaLike(uint64_t seed, ScenarioScale scale) {
  return Assemble("dbpedia_like", seed, scale, ChangeMix(),
                  /*hotspot_fraction=*/0.6,
                  "http://dbpedia-like.org/onto#");
}

Scenario MakeClinicalKb(uint64_t seed, ScenarioScale scale) {
  Scenario scenario =
      Assemble("clinical_kb", seed, scale, ChangeMix(),
               /*hotspot_fraction=*/0.7, "http://clinical.example/onto#");

  // Mark the subtrees rooted at the hot classes as sensitive — in the
  // paper's motivating scenario, the most active region is exactly the
  // patient-records area whose evolution analysts want to watch.
  auto head = scenario.vkb->Snapshot(scenario.vkb->head());
  const schema::SchemaView view = schema::SchemaView::Build(**head);
  for (rdf::TermId hot : scenario.hot_classes) {
    scenario.sensitive_classes.push_back(hot);
    scenario.policy.MarkSensitive(hot);
    for (rdf::TermId descendant : view.hierarchy().Descendants(hot)) {
      scenario.sensitive_classes.push_back(descendant);
      scenario.policy.MarkSensitive(descendant);
    }
  }
  // The data protection officer sees everything; the default analyst
  // profile ("clinical_kb/user") and curators have no grants.
  scenario.policy.GrantAll("dpo");
  return scenario;
}

Scenario MakeSocialFeed(uint64_t seed, ScenarioScale scale) {
  scale.versions = std::max<size_t>(scale.versions, 4);
  scale.operations = scale.operations / 2;
  return Assemble("social_feed", seed, scale, ChangeMix::InstanceChurn(),
                  /*hotspot_fraction=*/0.5, "http://social.example/feed#");
}

}  // namespace evorec::workload

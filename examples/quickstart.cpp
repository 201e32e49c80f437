// Quickstart: build a tiny knowledge base, evolve it, compute the
// paper's evolution measures, and get a personalised recommendation.
//
//   $ ./quickstart

#include <cstdio>
#include <iostream>

#include "evorec.h"

int main() {
  using namespace evorec;

  // 1. Build version 1 of a tiny KB: a Person/Student hierarchy with a
  //    couple of instances.
  rdf::KnowledgeBase v1;
  v1.DeclareClass("http://ex.org/Person");
  v1.DeclareClass("http://ex.org/Student");
  v1.DeclareClass("http://ex.org/City");
  v1.AddIriTriple("http://ex.org/Student",
                  "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                  "http://ex.org/Person");
  v1.DeclareProperty("http://ex.org/livesIn", "http://ex.org/Person",
                     "http://ex.org/City");
  v1.AddIriTriple("http://ex.org/alice",
                  "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                  "http://ex.org/Person");
  v1.AddIriTriple("http://ex.org/rome",
                  "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                  "http://ex.org/City");

  // 2. Commit it into a versioned store and apply one transition:
  //    new students arrive, alice moves to rome.
  version::VersionedKnowledgeBase vkb(v1);
  version::ChangeSet changes;
  auto& dict = vkb.dictionary();
  const auto& voc = vkb.vocabulary();
  for (int i = 0; i < 3; ++i) {
    changes.additions.push_back(
        {dict.InternIri("http://ex.org/student" + std::to_string(i)),
         voc.rdf_type, dict.InternIri("http://ex.org/Student")});
  }
  changes.additions.push_back({dict.InternIri("http://ex.org/alice"),
                               dict.InternIri("http://ex.org/livesIn"),
                               dict.InternIri("http://ex.org/rome")});
  auto v2 = vkb.Commit(changes, "quickstart", "students arrive");
  if (!v2.ok()) {
    std::fprintf(stderr, "commit failed: %s\n",
                 v2.status().ToString().c_str());
    return 1;
  }

  // 3. Build the evolution context for (v1 → v2) and run every
  //    registered measure.
  auto ctx = measures::EvolutionContext::FromVersions(vkb, 0, *v2);
  if (!ctx.ok()) {
    std::fprintf(stderr, "context failed: %s\n",
                 ctx.status().ToString().c_str());
    return 1;
  }
  std::printf("low-level delta: |d+|=%zu |d-|=%zu\n",
              ctx->low_level_delta().added.size(),
              ctx->low_level_delta().removed.size());

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  TablePrinter table({"measure", "category", "top class", "score"});
  for (const auto& measure : registry.CreateAll()) {
    auto report = measure->Compute(*ctx);
    if (!report.ok()) continue;
    const auto top = report->TopK(1);
    if (top.empty()) continue;
    table.AddRow({measure->info().name,
                  measures::MeasureCategoryName(measure->info().category),
                  dict.term(top[0].term).lexical,
                  TablePrinter::Cell(top[0].score, 3)});
  }
  table.Print(std::cout);

  // 4. Ask the recommender what a student-curious user should look at.
  profile::HumanProfile user("quickstart-user");
  user.SetInterest(dict.InternIri("http://ex.org/Student"), 1.0);
  recommend::RecommenderOptions options;
  options.package_size = 3;
  recommend::Recommender recommender(registry, options);
  auto list = recommender.RecommendForUser(*ctx, user);
  if (!list.ok()) {
    std::fprintf(stderr, "recommendation failed: %s\n",
                 list.status().ToString().c_str());
    return 1;
  }
  std::printf("\nrecommended evolution measures for %s:\n",
              user.id().c_str());
  for (const auto& item : list->items) {
    std::printf("- %s (relatedness %.2f)\n", item.candidate.id.c_str(),
                item.relatedness);
    std::printf("%s", item.explanation.ToText().c_str());
  }
  std::printf("set diversity %.2f, category coverage %.2f\n",
              list->set_diversity, list->category_coverage);
  return 0;
}

// Focused coverage for the anonymity gate, explanations and group
// selection plumbing of the recommend module.

#include <gtest/gtest.h>

#include "recommend/anonymity_gate.h"
#include "recommend/explanation.h"
#include "recommend/group_recommender.h"
#include "rdf/knowledge_base.h"

namespace evorec::recommend {
namespace {

MeasureCandidate MakeCandidate(const std::string& name,
                               std::vector<rdf::TermId> terms,
                               rdf::TermId focus = rdf::kAnyTerm) {
  MeasureCandidate c;
  c.measure.name = name;
  c.measure.description = "test measure " + name;
  c.measure.category = measures::MeasureCategory::kCount;
  c.region_label = focus == rdf::kAnyTerm ? "all" : "region";
  c.id = name + "@" + c.region_label;
  c.focus = focus;
  for (size_t i = 0; i < terms.size(); ++i) {
    c.report.Add(terms[i], static_cast<double>(terms.size() - i));
  }
  c.top_terms = std::move(terms);
  return c;
}

TEST(AnonymityGateTest, NullPolicyPassesThrough) {
  std::vector<MeasureCandidate> pool = {MakeCandidate("m1", {1, 2, 3})};
  const GateOutcome outcome =
      ApplyAccessGate(nullptr, "anyone", std::move(pool), 10);
  EXPECT_EQ(outcome.candidates.size(), 1u);
  EXPECT_EQ(outcome.redacted_terms, 0u);
  EXPECT_EQ(outcome.dropped_candidates, 0u);
}

TEST(AnonymityGateTest, RedactsSensitiveTermsAndRecomputesTop) {
  anonymity::AccessPolicy policy;
  policy.MarkSensitive(1);  // the top term of the candidate
  std::vector<MeasureCandidate> pool = {MakeCandidate("m1", {1, 2, 3})};
  const GateOutcome outcome =
      ApplyAccessGate(&policy, "bob", std::move(pool), 10);
  ASSERT_EQ(outcome.candidates.size(), 1u);
  EXPECT_EQ(outcome.redacted_terms, 1u);
  // Term 1 is gone from both report and top_terms; 2 leads now.
  const MeasureCandidate& gated = outcome.candidates[0];
  EXPECT_DOUBLE_EQ(gated.report.ScoreOf(1), 0.0);
  ASSERT_FALSE(gated.top_terms.empty());
  EXPECT_EQ(gated.top_terms[0], 2u);
}

TEST(AnonymityGateTest, DropsFullyRedactedCandidates) {
  anonymity::AccessPolicy policy;
  policy.MarkSensitive(1);
  policy.MarkSensitive(2);
  std::vector<MeasureCandidate> pool = {MakeCandidate("m1", {1, 2}),
                                        MakeCandidate("m2", {3})};
  const GateOutcome outcome =
      ApplyAccessGate(&policy, "bob", std::move(pool), 10);
  EXPECT_EQ(outcome.candidates.size(), 1u);
  EXPECT_EQ(outcome.dropped_candidates, 1u);
  EXPECT_EQ(outcome.candidates[0].measure.name, "m2");
}

TEST(AnonymityGateTest, DropsCandidatesWithDeniedFocus) {
  anonymity::AccessPolicy policy;
  policy.MarkSensitive(7);
  // The candidate's report is public but its focus region is not.
  std::vector<MeasureCandidate> pool = {
      MakeCandidate("m1", {1, 2}, /*focus=*/7)};
  const GateOutcome outcome =
      ApplyAccessGate(&policy, "bob", std::move(pool), 10);
  EXPECT_TRUE(outcome.candidates.empty());
  EXPECT_EQ(outcome.dropped_candidates, 1u);
  // A granted agent keeps it.
  policy.Grant("ann", 7);
  std::vector<MeasureCandidate> pool2 = {
      MakeCandidate("m1", {1, 2}, /*focus=*/7)};
  const GateOutcome granted =
      ApplyAccessGate(&policy, "ann", std::move(pool2), 10);
  EXPECT_EQ(granted.candidates.size(), 1u);
}

// ------------------------------------------------------- Explanation

TEST(ExplanationTest, CarriesMeasureStoryAndMatches) {
  rdf::KnowledgeBase before;
  const rdf::TermId cls = before.DeclareClass("http://x/Thing");
  rdf::KnowledgeBase after = before;
  after.AddIriTriple("http://x/i",
                     "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                     "http://x/Thing");
  auto ctx = measures::EvolutionContext::Build(before, after);
  ASSERT_TRUE(ctx.ok());
  RelatednessScorer scorer(*ctx, {});
  profile::HumanProfile user("u");
  user.SetInterest(cls, 1.0);

  const MeasureCandidate candidate = MakeCandidate("test_measure", {cls});
  const Explanation e = BuildExplanation(
      candidate, scorer.Score(user, candidate), NoveltyScore(user, candidate),
      before.dictionary(),
      TopTermInterests(candidate, scorer.ExpandInterests(user)).data());
  EXPECT_EQ(e.measure_name, "test_measure");
  EXPECT_GT(e.relatedness, 0.0);
  ASSERT_EQ(e.top_affected.size(), 1u);
  EXPECT_EQ(e.top_affected[0], "http://x/Thing");
  ASSERT_EQ(e.matched_interests.size(), 1u);
  EXPECT_EQ(e.matched_interests[0], "http://x/Thing");

  const std::string text = e.ToText();
  EXPECT_NE(text.find("test_measure"), std::string::npos);
  EXPECT_NE(text.find("http://x/Thing"), std::string::npos);
  EXPECT_NE(text.find("matches your interests"), std::string::npos);
}

TEST(ExplanationTest, ProvenancePointerRendersWhenPresent) {
  Explanation e;
  e.measure_name = "m";
  e.measure_description = "d";
  e.category = "count";
  e.region_label = "all";
  EXPECT_EQ(e.ToText().find("provenance record"), std::string::npos);
  e.has_provenance = true;
  e.provenance_record = 42;
  EXPECT_NE(e.ToText().find("provenance record #42"), std::string::npos);
}

// -------------------------------------------------- group selection

TEST(GroupSelectionTest, UtilityMatrixDimensions) {
  rdf::KnowledgeBase before;
  const rdf::TermId cls = before.DeclareClass("http://x/A");
  rdf::KnowledgeBase after = before;
  after.AddIriTriple("http://x/i",
                     "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                     "http://x/A");
  auto ctx = measures::EvolutionContext::Build(before, after);
  ASSERT_TRUE(ctx.ok());
  RelatednessScorer scorer(*ctx, {});

  profile::Group group("g");
  profile::HumanProfile fan("fan");
  fan.SetInterest(cls, 1.0);
  group.AddMember(fan);
  group.AddMember(profile::HumanProfile("stranger"));

  std::vector<MeasureCandidate> pool = {MakeCandidate("m1", {cls}),
                                        MakeCandidate("m2", {cls + 100})};
  const UtilityMatrix utilities = BuildUtilityMatrix(pool, group, scorer);
  ASSERT_EQ(utilities.size(), 2u);
  ASSERT_EQ(utilities[0].size(), 2u);
  // The fan values the cls-candidate; the stranger values nothing.
  EXPECT_GT(utilities[0][0], 0.0);
  EXPECT_DOUBLE_EQ(utilities[1][0], 0.0);
  EXPECT_DOUBLE_EQ(utilities[1][1], 0.0);
}

TEST(GroupSelectionTest, SelectForGroupReportsDiagnostics) {
  rdf::KnowledgeBase before;
  const rdf::TermId a = before.DeclareClass("http://x/A");
  const rdf::TermId b = before.DeclareClass("http://x/B");
  rdf::KnowledgeBase after = before;
  after.AddIriTriple("http://x/i",
                     "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                     "http://x/A");
  auto ctx = measures::EvolutionContext::Build(before, after);
  ASSERT_TRUE(ctx.ok());
  RelatednessScorer scorer(*ctx, {});

  profile::Group group("g");
  profile::HumanProfile fan_a("fa");
  fan_a.SetInterest(a, 1.0);
  profile::HumanProfile fan_b("fb");
  fan_b.SetInterest(b, 1.0);
  group.AddMember(fan_a);
  group.AddMember(fan_b);

  std::vector<MeasureCandidate> pool = {MakeCandidate("ma", {a}),
                                        MakeCandidate("mb", {b}),
                                        MakeCandidate("mc", {a, b})};
  GroupSelectOptions options;
  options.package_size = 2;
  options.fairness_aware = true;
  options.diversify = false;
  const GroupSelection selection =
      SelectForGroup(pool, group, scorer, options);
  EXPECT_EQ(selection.selection.size(), 2u);
  EXPECT_EQ(selection.fairness.satisfaction.size(), 2u);
  // A fair package serves both fans.
  EXPECT_GT(selection.fairness.min_satisfaction, 0.0);
  EXPECT_GE(selection.set_diversity, 0.0);
  // Empty pool / empty group degenerate gracefully.
  const GroupSelection empty_pool =
      SelectForGroup({}, group, scorer, options);
  EXPECT_TRUE(empty_pool.selection.empty());
  profile::Group empty_group("e");
  const GroupSelection no_members =
      SelectForGroup(pool, empty_group, scorer, options);
  EXPECT_TRUE(no_members.selection.empty());
}

}  // namespace
}  // namespace evorec::recommend

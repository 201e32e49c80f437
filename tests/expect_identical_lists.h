#ifndef EVOREC_TESTS_EXPECT_IDENTICAL_LISTS_H_
#define EVOREC_TESTS_EXPECT_IDENTICAL_LISTS_H_

// Field-for-field comparison of two delivered recommendation lists at
// full precision: every candidate report entry, every explanation
// field (not just its rounded ToText rendering), the group fairness
// diagnostics and the provenance trail ordering. Doubles compare with
// EXPECT_EQ, so "identical" means bit-for-bit equal values.

#include <gtest/gtest.h>

#include "recommend/recommender.h"

namespace evorec::test_support {

inline void ExpectIdenticalLists(const recommend::RecommendationList& a,
                                 const recommend::RecommendationList& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    const recommend::RecommendationItem& x = a.items[i];
    const recommend::RecommendationItem& y = b.items[i];
    EXPECT_EQ(x.candidate.id, y.candidate.id);
    EXPECT_EQ(x.candidate.measure.name, y.candidate.measure.name);
    EXPECT_EQ(x.candidate.focus, y.candidate.focus);
    EXPECT_EQ(x.candidate.region_label, y.candidate.region_label);
    EXPECT_EQ(x.candidate.top_terms, y.candidate.top_terms);
    const auto& xs = x.candidate.report.scores();
    const auto& ys = y.candidate.report.scores();
    ASSERT_EQ(xs.size(), ys.size());
    for (size_t s = 0; s < xs.size(); ++s) {
      EXPECT_EQ(xs[s].term, ys[s].term);
      EXPECT_EQ(xs[s].score, ys[s].score);
    }
    EXPECT_EQ(x.relatedness, y.relatedness);
    EXPECT_EQ(x.novelty, y.novelty);
    const recommend::Explanation& ex = x.explanation;
    const recommend::Explanation& ey = y.explanation;
    EXPECT_EQ(ex.candidate_id, ey.candidate_id);
    EXPECT_EQ(ex.measure_name, ey.measure_name);
    EXPECT_EQ(ex.measure_description, ey.measure_description);
    EXPECT_EQ(ex.category, ey.category);
    EXPECT_EQ(ex.region_label, ey.region_label);
    EXPECT_EQ(ex.top_affected, ey.top_affected);
    EXPECT_EQ(ex.matched_interests, ey.matched_interests);
    EXPECT_EQ(ex.relatedness, ey.relatedness);
    EXPECT_EQ(ex.novelty, ey.novelty);
    EXPECT_EQ(ex.has_provenance, ey.has_provenance);
    EXPECT_EQ(ex.provenance_record, ey.provenance_record);
    EXPECT_EQ(ex.ToText(), ey.ToText());
  }
  EXPECT_EQ(a.set_diversity, b.set_diversity);
  EXPECT_EQ(a.category_coverage, b.category_coverage);
  EXPECT_EQ(a.fairness.satisfaction, b.fairness.satisfaction);
  EXPECT_EQ(a.fairness.mean_satisfaction, b.fairness.mean_satisfaction);
  EXPECT_EQ(a.fairness.min_satisfaction, b.fairness.min_satisfaction);
  EXPECT_EQ(a.fairness.gini, b.fairness.gini);
  EXPECT_EQ(a.fairness.has_always_least_satisfied_member,
            b.fairness.has_always_least_satisfied_member);
  EXPECT_EQ(a.fairness.always_least_satisfied_member,
            b.fairness.always_least_satisfied_member);
  EXPECT_EQ(a.candidate_pool_size, b.candidate_pool_size);
  EXPECT_EQ(a.redacted_terms, b.redacted_terms);
  EXPECT_EQ(a.dropped_candidates, b.dropped_candidates);
  EXPECT_EQ(a.provenance_trail, b.provenance_trail);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.brownout, b.brownout);
}

}  // namespace evorec::test_support

#endif  // EVOREC_TESTS_EXPECT_IDENTICAL_LISTS_H_

#include "measures/timeline.h"

#include <gtest/gtest.h>

#include "measures/change_count.h"
#include "version/versioned_kb.h"

namespace evorec::measures {
namespace {

using rdf::TermId;
using rdf::Triple;
using version::ChangeSet;
using version::VersionedKnowledgeBase;

// History with a class whose churn *grows* every transition (Rising)
// and one with a single spike in the middle (Spiky).
struct TimelineFixture {
  VersionedKnowledgeBase vkb;
  TermId rising, spiky;

  TimelineFixture() {
    auto& dict = vkb.dictionary();
    const auto& voc = vkb.vocabulary();
    rising = dict.InternIri("http://x/Rising");
    spiky = dict.InternIri("http://x/Spiky");
    ChangeSet base;
    base.additions.push_back({rising, voc.rdf_type, voc.rdfs_class});
    base.additions.push_back({spiky, voc.rdf_type, voc.rdfs_class});
    (void)vkb.Commit(base, "t", "declare classes");

    // Transitions 1..4: rising gets v instances; spiky gets 10 only in
    // transition 2 (0-indexed series position 2).
    for (uint32_t v = 1; v <= 4; ++v) {
      ChangeSet cs;
      for (uint32_t i = 0; i < v * 2; ++i) {
        cs.additions.push_back(
            {dict.InternIri("http://x/r" + std::to_string(v) + "_" +
                            std::to_string(i)),
             voc.rdf_type, rising});
      }
      if (v == 3) {
        for (uint32_t i = 0; i < 10; ++i) {
          cs.additions.push_back(
              {dict.InternIri("http://x/s" + std::to_string(i)),
               voc.rdf_type, spiky});
        }
      }
      (void)vkb.Commit(cs, "t", "churn " + std::to_string(v));
    }
  }
};

TEST(TimelineTest, CoversAllTransitions) {
  TimelineFixture f;
  ClassChangeCountMeasure measure;
  auto timeline = EvolutionTimeline::Compute(f.vkb, measure);
  ASSERT_TRUE(timeline.ok());
  // 6 versions → 5 transitions (incl. the base declaration commit).
  EXPECT_EQ(timeline->transition_count(), 5u);
}

TEST(TimelineTest, SeriesTracksPerTransitionScores) {
  TimelineFixture f;
  ClassChangeCountMeasure measure;
  auto timeline = EvolutionTimeline::Compute(f.vkb, measure,
                                             /*first=*/1);
  ASSERT_TRUE(timeline.ok());
  ASSERT_EQ(timeline->transition_count(), 4u);
  const auto rising_series = timeline->SeriesOf(f.rising);
  ASSERT_EQ(rising_series.size(), 4u);
  // Monotonically growing churn.
  for (size_t i = 1; i < rising_series.size(); ++i) {
    EXPECT_GT(rising_series[i], rising_series[i - 1]);
  }
  const auto spiky_series = timeline->SeriesOf(f.spiky);
  EXPECT_DOUBLE_EQ(spiky_series[0], 0.0);
  EXPECT_GT(spiky_series[2], 0.0);
  EXPECT_DOUBLE_EQ(spiky_series[3], 0.0);
}

TEST(TimelineTest, TrendStatsIdentifyShapes) {
  TimelineFixture f;
  ClassChangeCountMeasure measure;
  auto timeline = EvolutionTimeline::Compute(f.vkb, measure, /*first=*/1);
  ASSERT_TRUE(timeline.ok());
  const auto rising = timeline->TrendOf(f.rising);
  const auto spiky = timeline->TrendOf(f.spiky);
  EXPECT_GT(rising.slope, 0.0);
  EXPECT_GT(rising.mean, 0.0);
  EXPECT_GT(spiky.burstiness, rising.burstiness);
  EXPECT_EQ(spiky.peak_transition, 2u);
  // Unknown terms are flat zeros.
  const auto unknown = timeline->TrendOf(999999);
  EXPECT_DOUBLE_EQ(unknown.mean, 0.0);
  EXPECT_DOUBLE_EQ(unknown.slope, 0.0);
}

TEST(TimelineTest, TopTrendingAndBursty) {
  TimelineFixture f;
  ClassChangeCountMeasure measure;
  auto timeline = EvolutionTimeline::Compute(f.vkb, measure, /*first=*/1);
  ASSERT_TRUE(timeline.ok());
  const auto trending = timeline->TopTrending(1);
  ASSERT_EQ(trending.size(), 1u);
  EXPECT_EQ(trending[0].term, f.rising);

  const auto bursty = timeline->TopBursty(1);
  ASSERT_EQ(bursty.size(), 1u);
  EXPECT_EQ(bursty[0].term, f.spiky);
}

TEST(TimelineTest, RangeValidation) {
  TimelineFixture f;
  ClassChangeCountMeasure measure;
  // Empty range.
  EXPECT_FALSE(EvolutionTimeline::Compute(f.vkb, measure, 3, 3).ok());
  // Single-version store.
  VersionedKnowledgeBase tiny;
  EXPECT_FALSE(EvolutionTimeline::Compute(tiny, measure).ok());
  // Range clamped to head.
  auto clamped = EvolutionTimeline::Compute(f.vkb, measure, 0, 9999);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->transition_count(), 5u);
}

}  // namespace
}  // namespace evorec::measures

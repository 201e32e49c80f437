#include "profile/profile.h"

#include <gtest/gtest.h>

#include "profile/group.h"

namespace evorec::profile {
namespace {

TEST(ProfileTest, InterestLifecycle) {
  HumanProfile prof("ann");
  EXPECT_EQ(prof.id(), "ann");
  EXPECT_DOUBLE_EQ(prof.InterestIn(1), 0.0);
  prof.SetInterest(1, 0.8);
  prof.SetInterest(2, 0.4);
  EXPECT_DOUBLE_EQ(prof.InterestIn(1), 0.8);
  // Zero weight erases.
  prof.SetInterest(1, 0.0);
  EXPECT_DOUBLE_EQ(prof.InterestIn(1), 0.0);
  EXPECT_EQ(prof.interests().size(), 1u);
}

TEST(ProfileTest, CategoryAffinityDefaultsToOne) {
  HumanProfile prof("u");
  EXPECT_DOUBLE_EQ(
      prof.CategoryAffinity(measures::MeasureCategory::kStructural), 1.0);
  prof.SetCategoryAffinity(measures::MeasureCategory::kStructural, 0.2);
  EXPECT_DOUBLE_EQ(
      prof.CategoryAffinity(measures::MeasureCategory::kStructural), 0.2);
  EXPECT_DOUBLE_EQ(
      prof.CategoryAffinity(measures::MeasureCategory::kSemantic), 1.0);
}

TEST(ProfileTest, SeenHistoryAndNovelty) {
  HumanProfile prof("u");
  EXPECT_DOUBLE_EQ(prof.NoveltyOf({1, 2, 3}), 1.0);
  prof.RecordSeen({1, 2});
  EXPECT_TRUE(prof.HasSeen(1));
  EXPECT_FALSE(prof.HasSeen(3));
  EXPECT_EQ(prof.seen_count(), 2u);
  EXPECT_NEAR(prof.NoveltyOf({1, 2, 3}), 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(prof.NoveltyOf({}), 1.0);
  // Recording again is idempotent.
  prof.RecordSeen({1});
  EXPECT_EQ(prof.seen_count(), 2u);
}

TEST(ProfileTest, InterestSimilarity) {
  HumanProfile a("a"), b("b"), c("c");
  a.SetInterest(1, 1.0);
  a.SetInterest(2, 1.0);
  b.SetInterest(1, 1.0);
  b.SetInterest(2, 1.0);
  c.SetInterest(3, 1.0);
  EXPECT_NEAR(InterestSimilarity(a, b), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(InterestSimilarity(a, c), 0.0);
  // Empty profiles have zero similarity.
  HumanProfile empty("e");
  EXPECT_DOUBLE_EQ(InterestSimilarity(a, empty), 0.0);
  // Scale-invariance of cosine.
  HumanProfile scaled("s");
  scaled.SetInterest(1, 0.1);
  scaled.SetInterest(2, 0.1);
  EXPECT_NEAR(InterestSimilarity(a, scaled), 1.0, 1e-9);
}

TEST(GroupTest, MembershipAndCohesion) {
  Group group("team");
  EXPECT_TRUE(group.empty());
  EXPECT_DOUBLE_EQ(group.Cohesion(), 1.0);  // degenerate

  HumanProfile a("a"), b("b");
  a.SetInterest(1, 1.0);
  b.SetInterest(1, 1.0);
  group.AddMember(a);
  group.AddMember(b);
  EXPECT_EQ(group.size(), 2u);
  EXPECT_NEAR(group.Cohesion(), 1.0, 1e-9);

  HumanProfile c("c");
  c.SetInterest(99, 1.0);
  group.AddMember(c);
  EXPECT_LT(group.Cohesion(), 1.0);
}

TEST(GroupTest, RecordSeenReachesAllMembers) {
  Group group("team");
  group.AddMember(HumanProfile("a"));
  group.AddMember(HumanProfile("b"));
  group.RecordSeen({7, 8});
  for (const HumanProfile& member : group.members()) {
    EXPECT_TRUE(member.HasSeen(7));
    EXPECT_TRUE(member.HasSeen(8));
  }
}

}  // namespace
}  // namespace evorec::profile

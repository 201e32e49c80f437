#include "version/history_query.h"

#include <gtest/gtest.h>

namespace evorec::version {
namespace {

using rdf::Triple;

// History over a single triple T:
//   v0: absent, v1: present, v2: present, v3: absent (retracted),
//   v4: present again (re-asserted).
struct HistoryFixture {
  VersionedKnowledgeBase vkb;
  Triple t{1, 2, 3};

  HistoryFixture() {
    ChangeSet add;
    add.additions = {t};
    ChangeSet remove;
    remove.removals = {t};
    (void)vkb.Commit(add, "a", "v1: assert");
    (void)vkb.Commit(ChangeSet{}, "a", "v2: unrelated");
    (void)vkb.Commit(remove, "a", "v3: retract");
    (void)vkb.Commit(add, "a", "v4: re-assert");
  }
};

class HistoryQueryTest : public ::testing::TestWithParam<ArchivePolicy> {};

// ArchivePolicy has one value; the suite keeps its instantiation name.
INSTANTIATE_TEST_SUITE_P(AllPolicies, HistoryQueryTest,
                         ::testing::Values(ArchivePolicy::kFullMaterialization),
                         [](const auto&) { return "Full"; });

TEST_P(HistoryQueryTest, FirstAddedAndRemoved) {
  HistoryFixture f;
  HistoryQuery query(f.vkb);
  auto added = query.FirstAdded(f.t);
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(added->has_value());
  EXPECT_EQ(**added, 1u);

  auto removed = query.FirstRemoved(f.t);
  ASSERT_TRUE(removed.ok());
  ASSERT_TRUE(removed->has_value());
  EXPECT_EQ(**removed, 3u);

  // A triple never present.
  auto never = query.FirstAdded({9, 9, 9});
  ASSERT_TRUE(never.ok());
  EXPECT_FALSE(never->has_value());
  auto never_removed = query.FirstRemoved({9, 9, 9});
  ASSERT_TRUE(never_removed.ok());
  EXPECT_FALSE(never_removed->has_value());
}

TEST_P(HistoryQueryTest, LiveRangesTrackRetractionAndReassertion) {
  HistoryFixture f;
  HistoryQuery query(f.vkb);
  auto ranges = query.LiveRanges(f.t);
  ASSERT_TRUE(ranges.ok());
  ASSERT_EQ(ranges->size(), 2u);
  EXPECT_EQ((*ranges)[0], (HistoryQuery::LiveRange{1, 2}));
  EXPECT_EQ((*ranges)[1], (HistoryQuery::LiveRange{4, 4}));

  auto empty = query.LiveRanges({9, 9, 9});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_P(HistoryQueryTest, AsOfQueriesSnapshots) {
  HistoryFixture f;
  HistoryQuery query(f.vkb);
  auto at_v0 = query.AsOf(0, {rdf::kAnyTerm, rdf::kAnyTerm, rdf::kAnyTerm});
  ASSERT_TRUE(at_v0.ok());
  EXPECT_TRUE(at_v0->empty());
  auto at_v2 = query.AsOf(2, {1, rdf::kAnyTerm, rdf::kAnyTerm});
  ASSERT_TRUE(at_v2.ok());
  EXPECT_EQ(at_v2->size(), 1u);
  EXPECT_FALSE(query.AsOf(99, {}).ok());
}

TEST_P(HistoryQueryTest, VersionsMatching) {
  HistoryFixture f;
  HistoryQuery query(f.vkb);
  auto versions =
      query.VersionsMatching({1, rdf::kAnyTerm, rdf::kAnyTerm});
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<VersionId>{1, 2, 4}));
}

TEST_P(HistoryQueryTest, SubjectFootprintHistory) {
  HistoryFixture f;
  // Add a second triple for subject 1 at v4 only.
  // (Extend the fixture history: v5 adds {1,7,8}.)
  ChangeSet extra;
  extra.additions = {{1, 7, 8}};
  (void)f.vkb.Commit(extra, "a", "v5");
  HistoryQuery query(f.vkb);
  auto footprint = query.SubjectFootprintHistory(1);
  ASSERT_TRUE(footprint.ok());
  EXPECT_EQ(*footprint, (std::vector<size_t>{0, 1, 1, 0, 1, 2}));
}

}  // namespace
}  // namespace evorec::version

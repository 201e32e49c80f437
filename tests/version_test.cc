#include "version/versioned_kb.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/random.h"

namespace evorec::version {
namespace {

using rdf::Triple;

ChangeSet Changes(std::vector<Triple> additions,
                  std::vector<Triple> removals) {
  ChangeSet cs;
  cs.additions = std::move(additions);
  cs.removals = std::move(removals);
  return cs;
}

class VersionedKbTest : public ::testing::TestWithParam<ArchivePolicy> {};

// ArchivePolicy has one value; the suite keeps its instantiation name.
INSTANTIATE_TEST_SUITE_P(AllPolicies, VersionedKbTest,
                         ::testing::Values(ArchivePolicy::kFullMaterialization),
                         [](const auto&) { return "Full"; });

TEST_P(VersionedKbTest, StartsWithEmptyBase) {
  VersionedKnowledgeBase vkb;
  EXPECT_EQ(vkb.version_count(), 1u);
  EXPECT_EQ(vkb.head(), 0u);
  auto snapshot = vkb.Snapshot(0);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->size(), 0u);
}

TEST_P(VersionedKbTest, CommitAppliesAdditionsAndRemovals) {
  VersionedKnowledgeBase vkb;
  auto v1 = vkb.Commit(Changes({{1, 2, 3}, {4, 5, 6}}, {}), "ann", "add");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = vkb.Commit(Changes({{7, 8, 9}}, {{1, 2, 3}}), "bob", "edit");
  ASSERT_TRUE(v2.ok());

  auto s1 = vkb.Snapshot(1);
  ASSERT_TRUE(s1.ok());
  EXPECT_TRUE((*s1)->store().Contains({1, 2, 3}));
  EXPECT_EQ((*s1)->size(), 2u);

  auto s2 = vkb.Snapshot(2);
  ASSERT_TRUE(s2.ok());
  EXPECT_FALSE((*s2)->store().Contains({1, 2, 3}));
  EXPECT_TRUE((*s2)->store().Contains({7, 8, 9}));
  EXPECT_EQ((*s2)->size(), 2u);
}

TEST_P(VersionedKbTest, HistoricalSnapshotsAreImmutable) {
  VersionedKnowledgeBase vkb;
  (void)vkb.Commit(Changes({{1, 1, 1}}, {}), "a", "v1");
  (void)vkb.Commit(Changes({}, {{1, 1, 1}}), "a", "v2");
  auto s1 = vkb.Snapshot(1);
  ASSERT_TRUE(s1.ok());
  EXPECT_TRUE((*s1)->store().Contains({1, 1, 1}));
}

TEST_P(VersionedKbTest, InfoRecordsMetadata) {
  VersionedKnowledgeBase vkb;
  (void)vkb.Commit(Changes({{1, 1, 1}, {2, 2, 2}}, {}), "ann", "initial load",
                   /*timestamp=*/77);
  auto info = vkb.Info(1);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->author, "ann");
  EXPECT_EQ(info->message, "initial load");
  EXPECT_EQ(info->timestamp, 77u);
  EXPECT_EQ(info->additions, 2u);
  EXPECT_EQ(info->removals, 0u);
  EXPECT_FALSE(vkb.Info(9).ok());
}

TEST_P(VersionedKbTest, ChangesReconstructsPerVersionDelta) {
  VersionedKnowledgeBase vkb;
  (void)vkb.Commit(Changes({{1, 1, 1}}, {}), "a", "v1");
  (void)vkb.Commit(Changes({{2, 2, 2}}, {{1, 1, 1}}), "a", "v2");
  auto cs = vkb.Changes(2);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->additions, (std::vector<Triple>{{2, 2, 2}}));
  EXPECT_EQ(cs->removals, (std::vector<Triple>{{1, 1, 1}}));
  EXPECT_FALSE(vkb.Changes(0).ok());
  EXPECT_FALSE(vkb.Changes(5).ok());
}

TEST_P(VersionedKbTest, UnknownVersionsError) {
  VersionedKnowledgeBase vkb;
  EXPECT_EQ(vkb.Snapshot(3).status().code(), StatusCode::kNotFound);
}

TEST_P(VersionedKbTest, InitialSnapshotConstructor) {
  rdf::KnowledgeBase initial;
  initial.AddIriTriple("http://x/A", "http://x/p", "http://x/B");
  VersionedKnowledgeBase vkb(GetParam(), std::move(initial));
  auto s0 = vkb.Snapshot(0);
  ASSERT_TRUE(s0.ok());
  EXPECT_EQ((*s0)->size(), 1u);
}

TEST_P(VersionedKbTest, EmptyCommitIsLegal) {
  VersionedKnowledgeBase vkb;
  auto v = vkb.Commit(ChangeSet{}, "a", "noop");
  ASSERT_TRUE(v.ok());
  auto s = vkb.Snapshot(*v);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->size(), 0u);
}

TEST_P(VersionedKbTest, MoveCommitRecordsMetadataAndChanges) {
  VersionedKnowledgeBase vkb;
  ChangeSet cs = Changes({{1, 2, 3}, {4, 5, 6}}, {});
  auto v = vkb.Commit(std::move(cs), "ann", "moved");
  ASSERT_TRUE(v.ok());
  auto info = vkb.Info(*v);
  ASSERT_TRUE(info.ok());
  // Sizes are captured before the change set is moved into storage.
  EXPECT_EQ(info->additions, 2u);
  EXPECT_EQ(info->removals, 0u);
  auto changes = vkb.Changes(*v);
  ASSERT_TRUE(changes.ok());
  EXPECT_EQ(changes->additions.size(), 2u);
  auto s = vkb.Snapshot(*v);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)->store().Contains({1, 2, 3}));
  EXPECT_TRUE((*s)->store().Contains({4, 5, 6}));
}

// Seeded random histories over a small term universe, so commits
// collide with earlier versions: re-adds, removals of absent triples,
// duplicates inside one change set, and triples a set both adds and
// removes.
std::vector<ChangeSet> RandomHistory(uint64_t seed, size_t versions) {
  Rng rng(seed);
  const auto triple = [&rng]() -> Triple {
    return {static_cast<rdf::TermId>(rng.UniformInt(0, 24)),
            static_cast<rdf::TermId>(rng.UniformInt(0, 5)),
            static_cast<rdf::TermId>(rng.UniformInt(0, 24))};
  };
  std::vector<ChangeSet> history(versions);
  for (ChangeSet& cs : history) {
    for (int i = static_cast<int>(rng.UniformInt(0, 30)); i > 0; --i) {
      cs.additions.push_back(triple());
    }
    for (int i = static_cast<int>(rng.UniformInt(0, 15)); i > 0; --i) {
      cs.removals.push_back(rng.Bernoulli(0.2) && !cs.additions.empty()
                                ? cs.additions.front()
                                : triple());
    }
  }
  return history;
}

// The reference model: the content of every version, replaying
// additions then removals onto an ordered set.
std::vector<std::vector<Triple>> ModelContents(
    const std::vector<ChangeSet>& history) {
  std::vector<std::vector<Triple>> contents(1);
  std::set<Triple> current;
  for (const ChangeSet& cs : history) {
    current.insert(cs.additions.begin(), cs.additions.end());
    for (const Triple& t : cs.removals) current.erase(t);
    contents.emplace_back(current.begin(), current.end());
  }
  return contents;
}

std::vector<Triple> Content(const rdf::KnowledgeBase& kb) {
  return kb.store().Match(rdf::TriplePattern{});
}

void CommitAll(VersionedKnowledgeBase& vkb,
               const std::vector<ChangeSet>& history) {
  for (const ChangeSet& cs : history) {
    ASSERT_TRUE(vkb.Commit(cs, "model", "step").ok());
  }
}

class VersionedKbModelTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, VersionedKbModelTest,
                         ::testing::Values(1, 7, 42, 1009));

TEST_P(VersionedKbModelTest, EveryVersionMatchesTheSetModel) {
  const std::vector<ChangeSet> history = RandomHistory(GetParam(), 24);
  const std::vector<std::vector<Triple>> model = ModelContents(history);
  VersionedKnowledgeBase vkb;
  ASSERT_NO_FATAL_FAILURE(CommitAll(vkb, history));
  ASSERT_EQ(vkb.version_count(), model.size());
  for (VersionId v = 0; v < model.size(); ++v) {
    auto snapshot = vkb.Snapshot(v);
    auto shared = vkb.SharedSnapshot(v);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(shared.ok());
    EXPECT_EQ(Content(**snapshot), model[v]) << "version " << v;
    EXPECT_EQ(Content(**shared), model[v]) << "version " << v;
    if (v == 0) continue;
    // The committed set comes back verbatim, duplicates and no-op
    // entries included, not a net difference of adjacent versions.
    auto changes = vkb.Changes(v);
    ASSERT_TRUE(changes.ok());
    EXPECT_EQ(changes->additions, history[v - 1].additions) << v;
    EXPECT_EQ(changes->removals, history[v - 1].removals) << v;
  }
}

TEST_P(VersionedKbModelTest, ReplicaReplayedFromChangesHasTheSameHandles) {
  VersionedKnowledgeBase vkb;
  ASSERT_NO_FATAL_FAILURE(CommitAll(vkb, RandomHistory(GetParam(), 24)));
  VersionedKnowledgeBase replica;
  for (VersionId v = 1; v <= vkb.head(); ++v) {
    auto changes = vkb.Changes(v);
    ASSERT_TRUE(changes.ok());
    ASSERT_TRUE(replica.Commit(std::move(changes).value(), "replay", "").ok());
  }
  ASSERT_EQ(replica.version_count(), vkb.version_count());
  for (VersionId v = 0; v <= vkb.head(); ++v) {
    EXPECT_EQ(replica.Handle(v)->fingerprint, vkb.Handle(v)->fingerprint)
        << "version " << v;
  }
}

TEST_P(VersionedKbModelTest, SnapshotPointerOutlivesLaterCommits) {
  const std::vector<ChangeSet> history = RandomHistory(GetParam(), 65);
  const std::vector<std::vector<Triple>> model = ModelContents(history);
  VersionedKnowledgeBase vkb;
  ASSERT_TRUE(vkb.Commit(history[0], "model", "v1").ok());
  auto v1 = vkb.Snapshot(1);
  ASSERT_TRUE(v1.ok());
  const rdf::KnowledgeBase* pinned = *v1;
  ASSERT_NO_FATAL_FAILURE(CommitAll(
      vkb, std::vector<ChangeSet>(history.begin() + 1, history.end())));
  ASSERT_EQ(vkb.head(), 65u);
  EXPECT_EQ(Content(*pinned), model[1]);
  EXPECT_EQ(*vkb.Snapshot(1), pinned);
}

TEST(VersionedKbStorageTest, SharedSegmentsAreBilledOnce) {
  VersionedKnowledgeBase vkb;
  ChangeSet bulk;
  for (uint32_t i = 0; i < 2000; ++i) bulk.additions.push_back({i, 1, i});
  ASSERT_TRUE(vkb.Commit(bulk, "a", "bulk").ok());
  const size_t after_bulk = vkb.StorageBytes();
  for (uint32_t v = 0; v < 10; ++v) {
    ASSERT_TRUE(vkb.Commit(Changes({{5000 + v, 2, v}}, {}), "a", "small").ok());
  }
  // Ten more versions each pin the bulk segment; billed per version
  // they would cost about ten bulk segments more.
  EXPECT_LT(vkb.StorageBytes(), after_bulk + after_bulk / 4);
}
}  // namespace
}  // namespace evorec::version

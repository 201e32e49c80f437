#include "rdf/triple_store.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"

namespace evorec::rdf {
namespace {

TripleStore MakeStore(std::vector<Triple> triples) {
  TripleStore store;
  store.AddAll(triples);
  return store;
}

TEST(TripleStoreTest, EmptyStore) {
  TripleStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Match({}).empty());
}

TEST(TripleStoreTest, AddDeduplicates) {
  TripleStore store = MakeStore({{1, 2, 3}, {1, 2, 3}, {1, 2, 4}});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains({1, 2, 3}));
  EXPECT_TRUE(store.Contains({1, 2, 4}));
  EXPECT_FALSE(store.Contains({4, 2, 1}));
}

TEST(TripleStoreTest, RemoveDeletes) {
  TripleStore store = MakeStore({{1, 2, 3}, {1, 2, 4}});
  store.Remove({1, 2, 3});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Contains({1, 2, 3}));
  // Removing an absent triple is a no-op.
  store.Remove({9, 9, 9});
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, AddAndRemoveSameBatchNetsToAbsent) {
  TripleStore store;
  store.Add({1, 2, 3});
  store.Remove({1, 2, 3});
  EXPECT_FALSE(store.Contains({1, 2, 3}));
  EXPECT_EQ(store.size(), 0u);
}

// Regression: buffered operations must obey per-triple order — an Add
// after a Remove in the same batch leaves the triple present. (The
// original buffered implementation applied all adds before all
// removes, silently dropping re-added triples; delta-chain replay
// depends on last-wins semantics.)
TEST(TripleStoreTest, LastOperationWinsWithinBatch) {
  TripleStore store;
  store.Remove({1, 2, 3});  // absent: no-op
  store.Add({1, 2, 3});
  EXPECT_TRUE(store.Contains({1, 2, 3}));

  TripleStore store2;
  store2.Add({1, 2, 3});
  store2.Compact();
  // remove → add → remove within one batch ends absent.
  store2.Remove({1, 2, 3});
  store2.Add({1, 2, 3});
  store2.Remove({1, 2, 3});
  EXPECT_FALSE(store2.Contains({1, 2, 3}));

  TripleStore store3;
  store3.Add({1, 2, 3});
  store3.Compact();
  // remove → add ends present.
  store3.Remove({1, 2, 3});
  store3.Add({1, 2, 3});
  EXPECT_TRUE(store3.Contains({1, 2, 3}));
  EXPECT_EQ(store3.size(), 1u);
}

TEST(TripleStoreTest, MatchAllEightPatternShapes) {
  // Triples over subjects {1,2}, predicates {10,11}, objects {20,21}.
  TripleStore store = MakeStore({
      {1, 10, 20}, {1, 10, 21}, {1, 11, 20}, {2, 10, 20}, {2, 11, 21}});
  const TermId any = kAnyTerm;

  EXPECT_EQ(store.Match({any, any, any}).size(), 5u);           // ***
  EXPECT_EQ(store.Match({1, any, any}).size(), 3u);             // s**
  EXPECT_EQ(store.Match({any, 10, any}).size(), 3u);            // *p*
  EXPECT_EQ(store.Match({any, any, 20}).size(), 3u);            // **o
  EXPECT_EQ(store.Match({1, 10, any}).size(), 2u);              // sp*
  EXPECT_EQ(store.Match({1, any, 20}).size(), 2u);              // s*o
  EXPECT_EQ(store.Match({any, 10, 20}).size(), 2u);             // *po
  EXPECT_EQ(store.Match({2, 11, 21}).size(), 1u);               // spo
  EXPECT_TRUE(store.Match({3, 10, 20}).empty());
}

TEST(TripleStoreTest, MatchResultsAreSortedSpo) {
  TripleStore store = MakeStore({{3, 1, 1}, {1, 1, 1}, {2, 1, 1}});
  const auto result = store.Match({kAnyTerm, 1, kAnyTerm});
  ASSERT_EQ(result.size(), 3u);
  EXPECT_LT(result[0], result[1]);
  EXPECT_LT(result[1], result[2]);
}

TEST(TripleStoreTest, ScanEarlyStop) {
  TripleStore store = MakeStore({{1, 1, 1}, {1, 1, 2}, {1, 1, 3}});
  size_t visited = 0;
  store.ScanT({1, 1, kAnyTerm}, [&](const Triple&) {
    ++visited;
    return visited < 2;
  });
  EXPECT_EQ(visited, 2u);
}

TEST(TripleStoreTest, DifferenceComputesDeltas) {
  TripleStore before = MakeStore({{1, 1, 1}, {2, 2, 2}, {3, 3, 3}});
  TripleStore after = MakeStore({{2, 2, 2}, {3, 3, 3}, {4, 4, 4}});
  const auto added = TripleStore::Difference(after, before);
  const auto removed = TripleStore::Difference(before, after);
  ASSERT_EQ(added.size(), 1u);
  EXPECT_EQ(added[0], Triple(4, 4, 4));
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], Triple(1, 1, 1));
}

TEST(TripleStoreTest, CopyIsIndependent) {
  TripleStore a = MakeStore({{1, 1, 1}});
  TripleStore b = a;
  b.Add({2, 2, 2});
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
}

TEST(TripleStoreTest, InterleavedMutationsAndReads) {
  TripleStore store;
  for (uint32_t i = 0; i < 100; ++i) {
    store.Add({i, i % 7, i % 13});
    if (i % 3 == 0) {
      EXPECT_TRUE(store.Contains({i, i % 7, i % 13}));
    }
  }
  EXPECT_EQ(store.size(), 100u);
  for (uint32_t i = 0; i < 100; i += 2) {
    store.Remove({i, i % 7, i % 13});
  }
  EXPECT_EQ(store.size(), 50u);
}

// Randomised differential test against a std::set reference model.
TEST(TripleStoreTest, MatchesReferenceModelUnderRandomOps) {
  Rng rng(99);
  TripleStore store;
  std::set<Triple> reference;
  for (int op = 0; op < 2000; ++op) {
    const Triple t(static_cast<TermId>(rng.UniformInt(0, 9)),
                   static_cast<TermId>(rng.UniformInt(0, 4)),
                   static_cast<TermId>(rng.UniformInt(0, 9)));
    if (rng.Bernoulli(0.7)) {
      store.Add(t);
      reference.insert(t);
    } else {
      store.Remove(t);
      reference.erase(t);
    }
    if (op % 97 == 0) {
      EXPECT_EQ(store.size(), reference.size());
    }
  }
  EXPECT_EQ(store.size(), reference.size());
  for (const Triple& t : reference) {
    EXPECT_TRUE(store.Contains(t));
  }
  // Pattern results agree with reference filtering.
  for (TermId p = 0; p < 5; ++p) {
    const auto got = store.Match({kAnyTerm, p, kAnyTerm});
    size_t expected = 0;
    for (const Triple& t : reference) {
      if (t.predicate == p) ++expected;
    }
    EXPECT_EQ(got.size(), expected);
  }
}

}  // namespace
}  // namespace evorec::rdf

// Differential property tests for the v2 storage engine: random
// interleavings of Add / Remove / AddAll / RemoveAll / Compact /
// PrepareIndexes are checked against a naive std::set<Triple> model,
// proving that incremental compaction and lazy per-index catch-up
// preserve last-wins semantics and SPO result ordering.

#include "rdf/triple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"

namespace evorec::rdf {
namespace {

Triple RandomTriple(Rng& rng) {
  // A small universe so adds, removes and re-adds collide often.
  return Triple(static_cast<TermId>(rng.UniformInt(0, 11)),
                static_cast<TermId>(rng.UniformInt(0, 5)),
                static_cast<TermId>(rng.UniformInt(0, 11)));
}

std::vector<Triple> ModelMatch(const std::set<Triple>& model,
                               const TriplePattern& pattern) {
  // std::set iteration order is operator< — i.e. SPO order.
  std::vector<Triple> out;
  for (const Triple& t : model) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  return out;
}

void CheckAgainstModel(const TripleStore& store,
                       const std::set<Triple>& model, Rng& rng) {
  ASSERT_EQ(store.size(), model.size());
  ASSERT_EQ(store.Match(TriplePattern{}),
            std::vector<Triple>(model.begin(), model.end()));
  // All eight pattern shapes, with terms drawn from the same universe
  // so hits are likely; Match must agree with the model in content
  // AND order.
  const Triple probe = RandomTriple(rng);
  const TriplePattern shapes[8] = {
      {kAnyTerm, kAnyTerm, kAnyTerm},
      {probe.subject, kAnyTerm, kAnyTerm},
      {kAnyTerm, probe.predicate, kAnyTerm},
      {kAnyTerm, kAnyTerm, probe.object},
      {probe.subject, probe.predicate, kAnyTerm},
      {probe.subject, kAnyTerm, probe.object},
      {kAnyTerm, probe.predicate, probe.object},
      {probe.subject, probe.predicate, probe.object},
  };
  for (const TriplePattern& pattern : shapes) {
    const std::vector<Triple> matched = store.Match(pattern);
    // Explicit order guard: Match promises SPO order for every shape,
    // including the (*,p,*) POS range whose repair sort is skipped
    // when the range already comes out ordered.
    ASSERT_TRUE(std::is_sorted(matched.begin(), matched.end()))
        << "Match result not in SPO order for pattern (" << pattern.subject
        << "," << pattern.predicate << "," << pattern.object << ")";
    ASSERT_EQ(matched, ModelMatch(model, pattern))
        << "pattern (" << pattern.subject << "," << pattern.predicate << ","
        << pattern.object << ")";
  }
  ASSERT_EQ(store.Contains(probe), model.count(probe) == 1);
}

TEST(TripleStorePropertyTest, RandomInterleavingsMatchSetModel) {
  for (uint64_t seed : {7u, 99u, 20260726u}) {
    Rng rng(seed);
    TripleStore store;
    std::set<Triple> model;
    for (int step = 0; step < 4000; ++step) {
      switch (rng.UniformInt(0, 5)) {
        case 0: {
          const Triple t = RandomTriple(rng);
          store.Add(t);
          model.insert(t);
          break;
        }
        case 1: {
          const Triple t = RandomTriple(rng);
          store.Remove(t);
          model.erase(t);
          break;
        }
        case 2: {
          std::vector<Triple> batch;
          for (int i = rng.UniformInt(0, 16); i > 0; --i) {
            batch.push_back(RandomTriple(rng));
          }
          store.AddAll(batch);
          model.insert(batch.begin(), batch.end());
          break;
        }
        case 3: {
          std::vector<Triple> batch;
          for (int i = rng.UniformInt(0, 16); i > 0; --i) {
            batch.push_back(RandomTriple(rng));
          }
          store.RemoveAll(batch);
          for (const Triple& t : batch) model.erase(t);
          break;
        }
        case 4:
          store.Compact();
          break;
        case 5:
          store.PrepareIndexes();
          break;
      }
      if (step % 61 == 0) {
        ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(store, model, rng))
            << "seed " << seed << " step " << step;
      }
    }
    ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(store, model, rng))
        << "seed " << seed;
  }
}

TEST(TripleStorePropertyTest, CopiesStayIndependentAndEquivalent) {
  Rng rng(4242);
  TripleStore store;
  std::set<Triple> model;
  for (int step = 0; step < 500; ++step) {
    const Triple t = RandomTriple(rng);
    if (rng.Bernoulli(0.7)) {
      store.Add(t);
      model.insert(t);
    } else {
      store.Remove(t);
      model.erase(t);
    }
    if (step == 137) store.Match({kAnyTerm, 2, kAnyTerm});  // build POS
    if (step % 83 == 0) {
      // Copying mid-stream (dirty buffers, possibly stale secondary
      // indexes) must yield an equivalent, independent store.
      TripleStore copy = store;
      std::set<Triple> copy_model = model;
      ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(copy, copy_model, rng));
      copy.Add({99, 99, 99});
      ASSERT_FALSE(store.Contains({99, 99, 99}));
    }
  }
  ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(store, model, rng));
}

TEST(TripleStoreLazinessTest, SpoOnlyConsumersNeverBuildSecondaryIndexes) {
  TripleStore a;
  TripleStore b;
  for (uint32_t i = 0; i < 300; ++i) {
    a.Add({i, i % 7, i % 13});
    if (i % 2 == 0) b.Add({i, i % 7, i % 13});
  }
  a.Compact();
  EXPECT_TRUE(a.Contains({0, 0, 0}));
  EXPECT_EQ(a.Match(TriplePattern{}).size(), 300u);
  EXPECT_EQ(TripleStore::Difference(a, b).size(), 150u);
  a.Remove({0, 0, 0});
  a.Compact();
  EXPECT_EQ(a.size(), 299u);
  // The whole SPO-only workload above — the E1 delta path — must not
  // have materialised POS or OSP.
  EXPECT_EQ(a.stats().secondary_builds(), 0u);
  EXPECT_EQ(b.stats().secondary_builds(), 0u);
  EXPECT_GE(a.stats().compactions, 2u);

  // A (*,p,*) scan builds POS but still not OSP.
  (void)a.Match({kAnyTerm, 3, kAnyTerm});
  EXPECT_EQ(a.stats().pos_full_builds + a.stats().pos_catchups, 1u);
  EXPECT_EQ(a.stats().osp_full_builds + a.stats().osp_catchups, 0u);
  // An (*,*,o) scan builds OSP.
  (void)a.Match({kAnyTerm, kAnyTerm, 5});
  EXPECT_EQ(a.stats().osp_full_builds + a.stats().osp_catchups, 1u);
}

TEST(TripleStoreLazinessTest, SmallDeltaCatchesUpIncrementally) {
  TripleStore store;
  for (uint32_t i = 0; i < 1000; ++i) {
    store.Add({i, i % 5, i % 11});
  }
  store.PrepareIndexes();
  const TripleStoreStats after_build = store.stats();

  // A small delta followed by POS/OSP scans must catch up by backlog
  // merge, not full re-sorts — and still return exact results.
  store.Add({5000, 1, 1});
  store.Remove({1, 1, 1});
  const std::vector<Triple> via_pos = store.Match({kAnyTerm, 1, kAnyTerm});
  std::vector<Triple> expected;
  for (const Triple& t : store.Match(TriplePattern{})) {
    if (t.predicate == 1) expected.push_back(t);
  }
  EXPECT_EQ(via_pos, expected);
  (void)store.Match({kAnyTerm, kAnyTerm, 1});
  EXPECT_EQ(store.stats().pos_full_builds, after_build.pos_full_builds);
  EXPECT_EQ(store.stats().osp_full_builds, after_build.osp_full_builds);
  EXPECT_EQ(store.stats().pos_catchups, after_build.pos_catchups + 1);
  EXPECT_EQ(store.stats().osp_catchups, after_build.osp_catchups + 1);
  EXPECT_TRUE(store.Contains({5000, 1, 1}));
  EXPECT_FALSE(store.Contains({1, 1, 1}));
}

}  // namespace
}  // namespace evorec::rdf

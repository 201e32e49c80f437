#include "delta/low_level_delta.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "delta/delta_index.h"
#include "rdf/knowledge_base.h"

namespace evorec::delta {
namespace {

using rdf::KnowledgeBase;
using rdf::TermId;
using rdf::Triple;

TEST(LowLevelDeltaTest, ComputesAddedAndRemoved) {
  KnowledgeBase before;
  before.AddIriTriple("http://x/A", "http://x/p", "http://x/B");
  before.AddIriTriple("http://x/A", "http://x/p", "http://x/C");
  KnowledgeBase after = before;  // shares dictionary
  after.store().Remove(after.store().Match(rdf::TriplePattern{})[0]);
  after.AddIriTriple("http://x/D", "http://x/p", "http://x/E");

  const LowLevelDelta delta = ComputeLowLevelDelta(before, after);
  EXPECT_EQ(delta.added.size(), 1u);
  EXPECT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_FALSE(delta.empty());
}

TEST(LowLevelDeltaTest, IdenticalSnapshotsYieldEmptyDelta) {
  KnowledgeBase kb;
  kb.AddIriTriple("http://x/A", "http://x/p", "http://x/B");
  const LowLevelDelta delta = ComputeLowLevelDelta(kb, kb);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.size(), 0u);
}

TEST(LowLevelDeltaTest, DeltaIsAntisymmetric) {
  KnowledgeBase v1;
  v1.AddIriTriple("http://x/A", "http://x/p", "http://x/B");
  KnowledgeBase v2 = v1;
  v2.AddIriTriple("http://x/C", "http://x/p", "http://x/D");

  const LowLevelDelta forward = ComputeLowLevelDelta(v1, v2);
  const LowLevelDelta backward = ComputeLowLevelDelta(v2, v1);
  EXPECT_EQ(forward.added, backward.removed);
  EXPECT_EQ(forward.removed, backward.added);
}

TEST(LowLevelDeltaTest, PerTermCountsEachTripleOnce) {
  LowLevelDelta delta;
  // Term 5 appears in two positions of one triple: counted once.
  delta.added.push_back({5, 5, 7});
  delta.removed.push_back({5, 6, 7});
  const auto counts = PerTermChangeCounts(delta);
  EXPECT_EQ(counts.at(5), 2u);  // both triples mention 5
  EXPECT_EQ(counts.at(7), 2u);
  EXPECT_EQ(counts.at(6), 1u);
  EXPECT_EQ(counts.count(42), 0u);
}

// DeltaIndex fixture: Person ⊒ Student; Person —worksIn→ City.
// Transition adds a Person instance and an instance edge.
struct IndexFixture {
  KnowledgeBase before;
  KnowledgeBase after;
  TermId person, student, city;

  IndexFixture() {
    person = before.DeclareClass("http://x/Person");
    student = before.DeclareClass("http://x/Student");
    city = before.DeclareClass("http://x/City");
    before.AddIriTriple("http://x/Student",
                        "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                        "http://x/Person");
    before.DeclareProperty("http://x/worksIn", "http://x/Person",
                           "http://x/City");
    before.AddIriTriple("http://x/alice",
                        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                        "http://x/Person");
    before.AddIriTriple("http://x/rome",
                        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                        "http://x/City");
    after = before;
    after.AddIriTriple("http://x/bob",
                       "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                       "http://x/Person");
    after.AddIriTriple("http://x/alice", "http://x/worksIn",
                       "http://x/rome");
  }

  DeltaIndex BuildIndex() const {
    const LowLevelDelta delta = ComputeLowLevelDelta(before, after);
    return DeltaIndex::Build(delta, schema::SchemaView::Build(before),
                             schema::SchemaView::Build(after),
                             before.vocabulary());
  }
};

TEST(DeltaIndexTest, DirectAttributionMatchesPaperDefinition) {
  IndexFixture f;
  const DeltaIndex index = f.BuildIndex();
  // Person appears directly in 1 change (bob type Person).
  EXPECT_EQ(index.DirectChanges(f.person), 1u);
  // City appears in no changed triple directly.
  EXPECT_EQ(index.DirectChanges(f.city), 0u);
  EXPECT_EQ(index.total_changes(), 2u);
}

TEST(DeltaIndexTest, ExtendedAttributionCreditsInstanceEdges) {
  IndexFixture f;
  const DeltaIndex index = f.BuildIndex();
  // The new alice→rome edge credits both Person and City.
  EXPECT_EQ(index.ExtendedChanges(f.person), 2u);  // 1 direct + 1 edge
  EXPECT_EQ(index.ExtendedChanges(f.city), 1u);    // edge only
}

TEST(DeltaIndexTest, NeighborhoodAggregatesNeighborChanges) {
  IndexFixture f;
  const DeltaIndex index = f.BuildIndex();
  // N(Student) = {Person} (subsumption); Person's extended count = 2.
  EXPECT_EQ(index.NeighborhoodChanges(f.student), 2u);
  // N(Person) ⊇ {Student, City}: Student 0 + City 1 = 1.
  EXPECT_EQ(index.NeighborhoodChanges(f.person), 1u);
  const auto neighborhood = index.UnionNeighborhood(f.person);
  EXPECT_EQ(neighborhood.size(), 2u);
}

TEST(DeltaIndexTest, UnionUniversesCoverBothVersions) {
  KnowledgeBase before;
  const TermId old_class = before.DeclareClass("http://x/Old");
  KnowledgeBase after(before.shared_dictionary());
  const TermId new_class = after.DeclareClass("http://x/New");

  const LowLevelDelta delta = ComputeLowLevelDelta(before, after);
  const DeltaIndex index =
      DeltaIndex::Build(delta, schema::SchemaView::Build(before),
                        schema::SchemaView::Build(after),
                        before.vocabulary());
  const auto& classes = index.union_classes();
  EXPECT_NE(std::find(classes.begin(), classes.end(), old_class),
            classes.end());
  EXPECT_NE(std::find(classes.begin(), classes.end(), new_class),
            classes.end());
}

TEST(DeltaIndexTest, NoChangesMeansZeroEverywhere) {
  KnowledgeBase kb;
  const TermId cls = kb.DeclareClass("http://x/C");
  const LowLevelDelta delta = ComputeLowLevelDelta(kb, kb);
  const DeltaIndex index = DeltaIndex::Build(
      delta, schema::SchemaView::Build(kb), schema::SchemaView::Build(kb),
      kb.vocabulary());
  EXPECT_EQ(index.total_changes(), 0u);
  EXPECT_EQ(index.DirectChanges(cls), 0u);
  EXPECT_EQ(index.ExtendedChanges(cls), 0u);
  EXPECT_EQ(index.NeighborhoodChanges(cls), 0u);
}

}  // namespace
}  // namespace evorec::delta

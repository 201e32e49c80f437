#include "schema/schema_view.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "schema/hierarchy.h"

namespace evorec::schema {
namespace {

using rdf::KnowledgeBase;
using rdf::kAnyTerm;
using rdf::TermId;

// Builds the small ontology used across schema tests:
//   Person ⊒ Student;  City
//   worksIn: Person → City,  knows: Person → Person
//   alice,bob: Person;  carol: Student;  rome: City
//   alice worksIn rome; alice knows bob; bob knows alice
struct Fixture {
  KnowledgeBase kb;
  TermId person, student, city, works_in, knows;
  TermId alice, bob, carol, rome;

  Fixture() {
    person = kb.DeclareClass("http://x/Person");
    student = kb.DeclareClass("http://x/Student");
    city = kb.DeclareClass("http://x/City");
    kb.AddIriTriple("http://x/Student",
                    "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                    "http://x/Person");
    works_in = kb.DeclareProperty("http://x/worksIn", "http://x/Person",
                                  "http://x/City");
    knows = kb.DeclareProperty("http://x/knows", "http://x/Person",
                               "http://x/Person");
    kb.AddIriTriple("http://x/alice",
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    "http://x/Person");
    kb.AddIriTriple("http://x/bob",
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    "http://x/Person");
    kb.AddIriTriple("http://x/carol",
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    "http://x/Student");
    kb.AddIriTriple("http://x/rome",
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    "http://x/City");
    kb.AddIriTriple("http://x/alice", "http://x/worksIn", "http://x/rome");
    kb.AddIriTriple("http://x/alice", "http://x/knows", "http://x/bob");
    kb.AddIriTriple("http://x/bob", "http://x/knows", "http://x/alice");
    alice = kb.dictionary().Find(rdf::Term::Iri("http://x/alice"));
    bob = kb.dictionary().Find(rdf::Term::Iri("http://x/bob"));
    carol = kb.dictionary().Find(rdf::Term::Iri("http://x/carol"));
    rome = kb.dictionary().Find(rdf::Term::Iri("http://x/rome"));
  }
};

TEST(SchemaViewTest, ExtractsClassesAndProperties) {
  Fixture f;
  const SchemaView view = SchemaView::Build(f.kb);
  EXPECT_TRUE(view.IsClass(f.person));
  EXPECT_TRUE(view.IsClass(f.student));
  EXPECT_TRUE(view.IsClass(f.city));
  EXPECT_FALSE(view.IsClass(f.alice));
  EXPECT_TRUE(view.IsProperty(f.works_in));
  EXPECT_TRUE(view.IsProperty(f.knows));
  EXPECT_FALSE(view.IsProperty(f.person));
  EXPECT_EQ(view.classes().size(), 3u);
  EXPECT_EQ(view.properties().size(), 2u);
}

TEST(SchemaViewTest, DomainRangeAndHierarchy) {
  Fixture f;
  const SchemaView view = SchemaView::Build(f.kb);
  EXPECT_EQ(view.DomainsOf(f.works_in), std::vector<TermId>{f.person});
  EXPECT_EQ(view.RangesOf(f.works_in), std::vector<TermId>{f.city});
  EXPECT_TRUE(view.hierarchy().IsSubclassOf(f.student, f.person));
  EXPECT_FALSE(view.hierarchy().IsSubclassOf(f.person, f.student));
}

TEST(SchemaViewTest, InstanceAccounting) {
  Fixture f;
  const SchemaView view = SchemaView::Build(f.kb);
  EXPECT_EQ(view.InstanceCount(f.person), 2u);
  EXPECT_EQ(view.InstanceCount(f.student), 1u);
  EXPECT_EQ(view.InstanceCount(f.city), 1u);
  EXPECT_EQ(view.TypeOf(f.alice), f.person);
  EXPECT_EQ(view.TypeOf(f.carol), f.student);
  EXPECT_EQ(view.TypeOf(f.person), kAnyTerm);  // classes are not typed
}

TEST(SchemaViewTest, ConnectionStatistics) {
  Fixture f;
  const SchemaView view = SchemaView::Build(f.kb);
  // alice worksIn rome: Person → City once.
  EXPECT_EQ(view.ConnectionCount(f.works_in, f.person, f.city), 1u);
  // knows: Person → Person twice.
  EXPECT_EQ(view.ConnectionCount(f.knows, f.person, f.person), 2u);
  EXPECT_EQ(view.ConnectionCount(f.works_in, f.city, f.person), 0u);
  // Totals: person participates in 1 (worksIn) + 2 (knows) = 3
  // connections; self-pair counted once each.
  EXPECT_EQ(view.TotalConnectionsOf(f.person), 3u);
  EXPECT_EQ(view.TotalConnectionsOf(f.city), 1u);
}

TEST(SchemaViewTest, NeighborhoodCombinesSubsumptionAndProperties) {
  Fixture f;
  const SchemaView view = SchemaView::Build(f.kb);
  const auto person_neighbors = view.Neighborhood(f.person);
  // Student (subclass) and City (via worksIn domain/range).
  EXPECT_NE(std::find(person_neighbors.begin(), person_neighbors.end(),
                      f.student),
            person_neighbors.end());
  EXPECT_NE(
      std::find(person_neighbors.begin(), person_neighbors.end(), f.city),
      person_neighbors.end());
  // Self never appears even with self-loop property (knows).
  EXPECT_EQ(
      std::find(person_neighbors.begin(), person_neighbors.end(), f.person),
      person_neighbors.end());
}

// ----------------------------------------------------- ClassHierarchy

TEST(ClassHierarchyTest, Descendants) {
  //      0
  //     / \.
  //    1   2
  //    |
  //    3
  ClassHierarchy h;
  h.AddEdge(1, 0);
  h.AddEdge(2, 0);
  h.AddEdge(3, 1);
  EXPECT_EQ(h.Descendants(0), (std::vector<TermId>{1, 2, 3}));
  EXPECT_TRUE(h.Descendants(3).empty());
}

TEST(ClassHierarchyTest, IsSubclassOfIsReflexiveTransitive) {
  ClassHierarchy h;
  h.AddEdge(1, 0);
  h.AddEdge(2, 1);
  EXPECT_TRUE(h.IsSubclassOf(2, 2));
  EXPECT_TRUE(h.IsSubclassOf(2, 1));
  EXPECT_TRUE(h.IsSubclassOf(2, 0));
  EXPECT_FALSE(h.IsSubclassOf(0, 2));
}

TEST(ClassHierarchyTest, Roots) {
  ClassHierarchy h;
  h.AddEdge(1, 0);
  h.AddEdge(2, 1);
  h.Touch(7);  // isolated class
  EXPECT_EQ(h.Roots(), (std::vector<TermId>{0, 7}));
}

TEST(ClassHierarchyTest, CycleDetection) {
  ClassHierarchy acyclic;
  acyclic.AddEdge(1, 0);
  acyclic.AddEdge(2, 1);
  EXPECT_TRUE(acyclic.IsAcyclic());

  ClassHierarchy cyclic;
  cyclic.AddEdge(1, 0);
  cyclic.AddEdge(0, 2);
  cyclic.AddEdge(2, 1);
  EXPECT_FALSE(cyclic.IsAcyclic());
}

TEST(ClassHierarchyTest, DuplicateAndSelfEdgesIgnored) {
  ClassHierarchy h;
  h.AddEdge(1, 0);
  h.AddEdge(1, 0);
  h.AddEdge(5, 5);
  EXPECT_EQ(h.edge_count(), 1u);
  EXPECT_EQ(h.Parents(1).size(), 1u);
}

TEST(ClassHierarchyTest, MultipleParentsSupported) {
  ClassHierarchy h;
  h.AddEdge(2, 0);
  h.AddEdge(2, 1);
  EXPECT_EQ(h.Parents(2).size(), 2u);
  EXPECT_TRUE(h.IsSubclassOf(2, 0));
  EXPECT_TRUE(h.IsSubclassOf(2, 1));
  EXPECT_TRUE(h.IsAcyclic());
}

}  // namespace
}  // namespace evorec::schema

#include "measures/measure.h"

#include <gtest/gtest.h>

#include "measures/centrality.h"
#include "measures/change_count.h"
#include "measures/measure_context.h"
#include "measures/neighborhood_change.h"
#include "measures/relevance.h"
#include "measures/report.h"
#include "measures/structural_shift.h"

namespace evorec::measures {
namespace {

using rdf::KnowledgeBase;
using rdf::TermId;

// Fixture KB: Person ⊒ Student; City; worksIn: Person→City;
// knows: Person→Person. Transition: instances churn on Person, one
// class moves in the hierarchy.
struct MeasureFixture {
  KnowledgeBase before;
  KnowledgeBase after;
  TermId person, student, city, team;

  MeasureFixture() {
    person = before.DeclareClass("http://x/Person");
    student = before.DeclareClass("http://x/Student");
    city = before.DeclareClass("http://x/City");
    team = before.DeclareClass("http://x/Team");
    before.AddIriTriple("http://x/Student",
                        "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                        "http://x/Person");
    before.AddIriTriple("http://x/Team",
                        "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                        "http://x/City");
    before.DeclareProperty("http://x/worksIn", "http://x/Person",
                           "http://x/City");
    before.DeclareProperty("http://x/knows", "http://x/Person",
                           "http://x/Person");
    for (int i = 0; i < 4; ++i) {
      before.AddIriTriple("http://x/p" + std::to_string(i),
                          "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                          "http://x/Person");
    }
    before.AddIriTriple("http://x/rome",
                        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                        "http://x/City");
    before.AddIriTriple("http://x/p0", "http://x/worksIn", "http://x/rome");
    before.AddIriTriple("http://x/p0", "http://x/knows", "http://x/p1");

    after = before;
    // Instance churn on Person. Only `knows` gains an edge, so the
    // connection ratios (relative cardinalities) genuinely change.
    after.AddIriTriple("http://x/p9",
                       "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                       "http://x/Person");
    after.AddIriTriple("http://x/p2", "http://x/knows", "http://x/p3");
    // Team reparented City → Person (topology shift).
    const auto& voc = after.vocabulary();
    after.store().Remove({team, voc.rdfs_subclass_of, city});
    after.store().Add({team, voc.rdfs_subclass_of, person});
  }

  EvolutionContext Context() const {
    auto ctx = EvolutionContext::Build(before, after);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    return std::move(ctx).value();
  }
};

TEST(EvolutionContextTest, RejectsForeignDictionaries) {
  KnowledgeBase a;
  KnowledgeBase b;  // different dictionary
  auto ctx = EvolutionContext::Build(a, b);
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvolutionContextTest, ExposesAlignedArtifacts) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  EXPECT_FALSE(ctx.union_classes().empty());
  // Each version's graph covers that version's own class set (the
  // per-version reusable artefact); the scattered accessors are the
  // union-aligned view.
  EXPECT_EQ(ctx.graph_before().graph().node_count(),
            ctx.view_before().classes().size());
  EXPECT_EQ(ctx.graph_after().graph().node_count(),
            ctx.view_after().classes().size());
  EXPECT_EQ(ctx.betweenness_before().size(), ctx.union_classes().size());
  EXPECT_EQ(ctx.betweenness_after().size(), ctx.union_classes().size());
  EXPECT_EQ(ctx.raw_betweenness_before().size(),
            ctx.graph_before().graph().node_count());
  EXPECT_GT(ctx.low_level_delta().size(), 0u);
}

TEST(EvolutionContextTest, UnionScatterZeroFillsAbsentClasses) {
  // `after` drops class B entirely: B stays in the union universe with
  // betweenness 0, and classes present in both versions keep the value
  // of their own-universe graph.
  rdf::KnowledgeBase before;
  before.DeclareClass("http://x/A");
  before.DeclareClass("http://x/B");
  before.DeclareClass("http://x/C");
  before.AddIriTriple("http://x/B",
                      "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                      "http://x/A");
  before.AddIriTriple("http://x/C",
                      "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                      "http://x/B");
  rdf::KnowledgeBase after = before;
  const rdf::TermId b =
      before.dictionary().Find(rdf::Term::Iri("http://x/B"));
  const auto& voc = after.vocabulary();
  const rdf::TermId a =
      before.dictionary().Find(rdf::Term::Iri("http://x/A"));
  const rdf::TermId c =
      before.dictionary().Find(rdf::Term::Iri("http://x/C"));
  after.store().Remove({b, voc.rdf_type, voc.rdfs_class});
  after.store().Remove({b, voc.rdfs_subclass_of, a});
  after.store().Remove({c, voc.rdfs_subclass_of, b});
  auto ctx = EvolutionContext::Build(before, after);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  ASSERT_LT(ctx->view_after().classes().size(),
            ctx->union_classes().size());
  const auto& union_classes = ctx->union_classes();
  const auto& scattered = ctx->betweenness_after();
  for (size_t i = 0; i < union_classes.size(); ++i) {
    if (union_classes[i] == b) {
      EXPECT_DOUBLE_EQ(scattered[i], 0.0);  // absent → isolated → 0
    }
  }
  // In `before`, B sits on the only A–C path.
  const auto& before_scatter = ctx->betweenness_before();
  const size_t bi = ctx->delta_index().UnionClassIndexOf(b);
  ASSERT_NE(bi, rdf::kNotInUniverse);
  EXPECT_GT(before_scatter[bi], 0.0);
}

TEST(ClassChangeCountTest, ScoresChurnedClassesHighest) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  ClassChangeCountMeasure measure;
  auto report = measure.Compute(ctx);
  ASSERT_TRUE(report.ok());
  // Person saw: 1 type addition + 2 instance edges (both endpoints
  // Person for knows, one endpoint for worksIn) + subclass re-attach.
  EXPECT_GT(report->ScoreOf(f.person), report->ScoreOf(f.student));
  EXPECT_GT(report->ScoreOf(f.person), 0.0);
  // Every class of the union universe is present in the report.
  EXPECT_EQ(report->size(), ctx.union_classes().size());
}

TEST(ClassChangeCountTest, DirectVariantIgnoresInstanceEdges) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  ClassChangeCountMeasure extended(/*extended=*/true);
  ClassChangeCountMeasure direct(/*extended=*/false);
  auto ext_report = extended.Compute(ctx);
  auto dir_report = direct.Compute(ctx);
  ASSERT_TRUE(ext_report.ok());
  ASSERT_TRUE(dir_report.ok());
  EXPECT_GT(ext_report->ScoreOf(f.person), dir_report->ScoreOf(f.person));
  EXPECT_NE(extended.info().name, direct.info().name);
}

TEST(PropertyChangeCountTest, CountsPredicateUsage) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  PropertyChangeCountMeasure measure;
  auto report = measure.Compute(ctx);
  ASSERT_TRUE(report.ok());
  const TermId works_in =
      f.before.dictionary().Find(rdf::Term::Iri("http://x/worksIn"));
  const TermId knows =
      f.before.dictionary().Find(rdf::Term::Iri("http://x/knows"));
  EXPECT_DOUBLE_EQ(report->ScoreOf(knows), 1.0);   // one new edge
  EXPECT_DOUBLE_EQ(report->ScoreOf(works_in), 0.0);  // untouched
  EXPECT_EQ(measure.info().scope, MeasureScope::kProperty);
}

TEST(NeighborhoodChangeTest, NeighborsOfChurnSeeIt) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  NeighborhoodChangeCountMeasure measure;
  auto report = measure.Compute(ctx);
  ASSERT_TRUE(report.ok());
  // Student has no direct changes but neighbors Person.
  EXPECT_GT(report->ScoreOf(f.student), 0.0);
  ClassChangeCountMeasure counts;
  auto count_report = counts.Compute(ctx);
  ASSERT_TRUE(count_report.ok());
  EXPECT_DOUBLE_EQ(count_report->ScoreOf(f.student), 0.0);
}

TEST(StructuralShiftTest, ReparentingMovesBetweenness) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  BetweennessShiftMeasure betweenness_shift;
  auto report = betweenness_shift.Compute(ctx);
  ASSERT_TRUE(report.ok());
  // The reparented class or its old/new parents must register a shift.
  const double total = report->TotalScore();
  EXPECT_GT(total, 0.0);
  for (const ScoredTerm& s : report->scores()) {
    EXPECT_GE(s.score, 0.0);
  }
}

TEST(StructuralShiftTest, NoChangesMeansZeroShift) {
  KnowledgeBase kb;
  kb.DeclareClass("http://x/A");
  kb.DeclareClass("http://x/B");
  kb.AddIriTriple("http://x/B",
                  "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                  "http://x/A");
  auto ctx = EvolutionContext::Build(kb, kb);
  ASSERT_TRUE(ctx.ok());
  BetweennessShiftMeasure measure;
  auto report = measure.Compute(*ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->TotalScore(), 0.0);
  BridgingShiftMeasure bridging;
  auto bridging_report = bridging.Compute(*ctx);
  ASSERT_TRUE(bridging_report.ok());
  EXPECT_DOUBLE_EQ(bridging_report->TotalScore(), 0.0);
}

TEST(CentralityTest, RelativeCardinalityDefinition) {
  MeasureFixture f;
  const schema::SchemaView view = schema::SchemaView::Build(f.before);
  const TermId works_in =
      f.before.dictionary().Find(rdf::Term::Iri("http://x/worksIn"));
  // worksIn Person→City: 1 connection; totals: Person 2 (1 worksIn +
  // 1 knows), City 1 → RC = 1/3.
  EXPECT_NEAR(RelativeCardinality(view, works_in, f.person, f.city),
              1.0 / 3.0, 1e-9);
  // Unseen pair → 0.
  EXPECT_DOUBLE_EQ(RelativeCardinality(view, works_in, f.city, f.person),
                   0.0);
}

TEST(CentralityTest, DirectionsDecompose) {
  MeasureFixture f;
  const schema::SchemaView view = schema::SchemaView::Build(f.after);
  const auto in = ComputeCentrality(view, CentralityDirection::kIn);
  const auto out = ComputeCentrality(view, CentralityDirection::kOut);
  const auto total = ComputeCentrality(view, CentralityDirection::kTotal);
  for (const auto& [cls, value] : total) {
    const double in_v = in.count(cls) ? in.at(cls) : 0.0;
    const double out_v = out.count(cls) ? out.at(cls) : 0.0;
    EXPECT_NEAR(value, in_v + out_v, 1e-9) << "class " << cls;
  }
  // City only receives edges → no out-centrality.
  EXPECT_DOUBLE_EQ(out.at(f.city), 0.0);
  EXPECT_GT(in.at(f.city), 0.0);
}

TEST(CentralityShiftTest, InstanceChurnShiftsSemanticCentrality) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  CentralityShiftMeasure measure(CentralityDirection::kTotal);
  auto report = measure.Compute(ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->TotalScore(), 0.0);
  EXPECT_EQ(measure.info().category, MeasureCategory::kSemantic);
}

TEST(RelevanceTest, DataRichCentralClassesScoreHigher) {
  MeasureFixture f;
  const schema::SchemaView view = schema::SchemaView::Build(f.before);
  const auto relevance = ComputeRelevance(view);
  // Person: central (two properties) and data-rich (4 instances).
  EXPECT_GT(relevance.at(f.person), relevance.at(f.team));
}

TEST(RelevanceShiftTest, RespondsToChurn) {
  MeasureFixture f;
  const EvolutionContext ctx = f.Context();
  RelevanceShiftMeasure measure;
  auto report = measure.Compute(ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->TotalScore(), 0.0);
}

// ------------------------------------------------------ MeasureReport

TEST(MeasureReportTest, SortTopKAndNormalize) {
  MeasureReport report;
  report.Add(1, 5.0);
  report.Add(2, 1.0);
  report.Add(3, 9.0);
  const auto top2 = report.TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].term, 3u);
  EXPECT_EQ(top2[1].term, 1u);
  EXPECT_EQ(report.TopKTerms(1), (std::vector<TermId>{3}));

  const MeasureReport normalized = report.Normalized();
  EXPECT_DOUBLE_EQ(normalized.ScoreOf(3), 1.0);
  EXPECT_DOUBLE_EQ(normalized.ScoreOf(2), 0.0);
  EXPECT_DOUBLE_EQ(normalized.ScoreOf(1), 0.5);
}

TEST(MeasureReportTest, TiesBreakByTermId) {
  MeasureReport report;
  report.Add(9, 1.0);
  report.Add(3, 1.0);
  report.Add(7, 1.0);
  EXPECT_EQ(report.TopKTerms(3), (std::vector<TermId>{3, 7, 9}));
}

TEST(MeasureReportTest, AlignedScores) {
  MeasureReport report;
  report.Add(5, 2.0);
  report.Add(10, 4.0);
  const std::vector<TermId> universe = {1, 5, 10, 20};
  EXPECT_EQ(report.AlignedScores(universe),
            (std::vector<double>{0.0, 2.0, 4.0, 0.0}));
}

TEST(MeasureReportTest, ConstantReportNormalizesToZero) {
  MeasureReport report;
  report.Add(1, 4.0);
  report.Add(2, 4.0);
  const MeasureReport normalized = report.Normalized();
  EXPECT_DOUBLE_EQ(normalized.ScoreOf(1), 0.0);
  EXPECT_DOUBLE_EQ(normalized.ScoreOf(2), 0.0);
}

}  // namespace
}  // namespace evorec::measures

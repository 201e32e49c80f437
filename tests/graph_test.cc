#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/betweenness.h"
#include "graph/bridging.h"
#include "graph/schema_graph.h"
#include "rdf/knowledge_base.h"

namespace evorec::graph {
namespace {

Graph Path(size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::FromEdges(n, std::move(edges));
}

Graph Star(size_t leaves) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 1; i <= leaves; ++i) edges.emplace_back(0, i);
  return Graph::FromEdges(leaves + 1, std::move(edges));
}

TEST(GraphTest, FromEdgesNormalises) {
  Graph g = Graph::FromEdges(
      4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {9, 1}});
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 2u);  // 0-1 and 1-2; self-loop/dup/oob dropped
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
  const auto n1 = g.Neighbors(1);
  EXPECT_EQ(std::vector<NodeId>(n1.begin(), n1.end()),
            (std::vector<NodeId>{0, 2}));
}

TEST(BetweennessTest, PathGraphKnownValues) {
  // Path 0-1-2-3-4: betweenness of node i counts pairs routed through
  // it: 0,3,4,3,0.
  const auto b = BetweennessExact(Path(5));
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[1], 3.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 3.0);
  EXPECT_DOUBLE_EQ(b[4], 0.0);
}

TEST(BetweennessTest, StarCenterCarriesAllPairs) {
  const auto b = BetweennessExact(Star(4));
  // Center routes all C(4,2)=6 leaf pairs.
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_DOUBLE_EQ(b[i], 0.0);
}

TEST(BetweennessTest, CompleteGraphHasZeroBetweenness) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  const auto b = BetweennessExact(Graph::FromEdges(5, std::move(edges)));
  for (double v : b) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(BetweennessTest, DisconnectedComponentsIndependent) {
  // Two disjoint paths 0-1-2 and 3-4-5.
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto b = BetweennessExact(g);
  EXPECT_DOUBLE_EQ(b[1], 1.0);
  EXPECT_DOUBLE_EQ(b[4], 1.0);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
}

TEST(BetweennessTest, SampledWithAllPivotsEqualsExact) {
  Graph g = Path(8);
  Rng rng(5);
  const auto exact = BetweennessExact(g);
  const auto sampled = BetweennessSampled(g, 8, rng);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(sampled[i], exact[i], 1e-9);
  }
}

TEST(BetweennessTest, SampledApproximatesExactRanking) {
  // A barbell: two cliques joined by a bridge node.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  for (NodeId i = 6; i < 11; ++i) {
    for (NodeId j = i + 1; j < 11; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(4, 5);
  edges.emplace_back(5, 6);
  Graph g = Graph::FromEdges(11, std::move(edges));
  Rng rng(7);
  const auto sampled = BetweennessSampled(g, 6, rng);
  // The bridge node 5 must dominate the clique cores even under
  // sampling. (The gate node 4 is excluded: its exact betweenness, 24,
  // is nearly tied with the bridge's 25, so sampling noise can
  // legitimately flip that pair.)
  const double max_core =
      *std::max_element(sampled.begin(), sampled.begin() + 4);
  EXPECT_GT(sampled[5], max_core);
}

TEST(BetweennessTest, NormalizationBoundsScores) {
  auto normalized = NormalizeBetweenness(BetweennessExact(Star(6)));
  for (double v : normalized) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Star center routes every pair → exactly 1 after normalisation.
  EXPECT_DOUBLE_EQ(normalized[0], 1.0);
  // Tiny graphs normalise to zero.
  const auto tiny = NormalizeBetweenness({5.0, 5.0});
  EXPECT_DOUBLE_EQ(tiny[0], 0.0);
}

TEST(BridgingTest, CoefficientFavorsNodesBetweenDenseRegions) {
  // Path 0-1-2: middle node has degree 2, ends degree 1.
  // BC(1) = (1/2) / (1/1 + 1/1) = 0.25; BC(0) = 1 / (1/2) = 2.
  const auto coeff = BridgingCoefficient(Path(3));
  EXPECT_DOUBLE_EQ(coeff[1], 0.25);
  EXPECT_DOUBLE_EQ(coeff[0], 2.0);
  EXPECT_DOUBLE_EQ(coeff[2], 2.0);
}

TEST(BridgingTest, IsolatedNodesGetZero) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  const auto coeff = BridgingCoefficient(g);
  EXPECT_DOUBLE_EQ(coeff[2], 0.0);
}

TEST(BridgingTest, CentralityIsProductWithBetweenness) {
  Graph g = Path(5);
  const auto betweenness = BetweennessExact(g);
  const auto coeff = BridgingCoefficient(g);
  const auto bridging = BridgingCentrality(g, betweenness);
  for (size_t i = 0; i < bridging.size(); ++i) {
    EXPECT_DOUBLE_EQ(bridging[i], coeff[i] * betweenness[i]);
  }
}

TEST(SchemaGraphTest, ProjectsClassesAndAlignsIndexes) {
  rdf::KnowledgeBase kb;
  const rdf::TermId a = kb.DeclareClass("http://x/A");
  const rdf::TermId b = kb.DeclareClass("http://x/B");
  const rdf::TermId c = kb.DeclareClass("http://x/C");
  kb.AddIriTriple("http://x/B",
                  "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                  "http://x/A");
  kb.DeclareProperty("http://x/p", "http://x/A", "http://x/C");
  const schema::SchemaView view = schema::SchemaView::Build(kb);
  std::vector<rdf::TermId> universe = {a, b, c};
  std::sort(universe.begin(), universe.end());

  const SchemaGraph sg = SchemaGraph::Build(view, universe);
  EXPECT_EQ(sg.graph().node_count(), 3u);
  // Edges: A-B (subsumption) and A-C (property).
  EXPECT_EQ(sg.graph().edge_count(), 2u);
  const NodeId na = sg.NodeOf(a);
  ASSERT_NE(na, UINT32_MAX);
  EXPECT_EQ(sg.ClassOf(na), a);
  EXPECT_EQ(sg.NodeOf(999), UINT32_MAX);
}

TEST(SchemaGraphTest, UniverseMayExceedViewClasses) {
  rdf::KnowledgeBase kb;
  const rdf::TermId a = kb.DeclareClass("http://x/A");
  const schema::SchemaView view = schema::SchemaView::Build(kb);
  // Universe contains a class unknown to this version.
  std::vector<rdf::TermId> universe = {a, a + 1000};
  std::sort(universe.begin(), universe.end());
  const SchemaGraph sg = SchemaGraph::Build(view, universe);
  EXPECT_EQ(sg.graph().node_count(), 2u);
  EXPECT_EQ(sg.graph().Degree(sg.NodeOf(a + 1000)), 0u);
}

}  // namespace
}  // namespace evorec::graph

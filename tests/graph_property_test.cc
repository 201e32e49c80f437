// Property sweeps for the graph algorithms on random graphs: exact
// betweenness invariants against a brute-force reference, sampling
// consistency, and bridging-coefficient sanity.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "common/random.h"
#include "graph/betweenness.h"
#include "graph/bridging.h"
#include "graph/graph.h"

namespace evorec::graph {
namespace {

Graph RandomGraph(size_t nodes, size_t edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edge_list;
  for (size_t i = 0; i < edges; ++i) {
    edge_list.emplace_back(
        static_cast<NodeId>(rng.UniformInt(0, static_cast<int64_t>(nodes) - 1)),
        static_cast<NodeId>(
            rng.UniformInt(0, static_cast<int64_t>(nodes) - 1)));
  }
  return Graph::FromEdges(nodes, std::move(edge_list));
}

class GraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPropertyTest,
                         ::testing::Values(3, 41, 97, 271));

TEST_P(GraphPropertyTest, BetweennessIsNonNegativeAndFinite) {
  const Graph g = RandomGraph(40, 80, GetParam());
  for (double b : BetweennessExact(g)) {
    EXPECT_GE(b, 0.0);
    EXPECT_TRUE(std::isfinite(b));
  }
}

TEST_P(GraphPropertyTest, BetweennessTotalEqualsInternalPairDistances) {
  // Σ_v B(v) = Σ_{s<t} (d(s,t) − 1) over connected pairs: every
  // shortest path of length d contributes d−1 interior nodes.
  const Graph g = RandomGraph(25, 40, GetParam());
  const auto betweenness = BetweennessExact(g);
  double betweenness_total = 0.0;
  for (double b : betweenness) betweenness_total += b;

  // Reference: BFS from every source. For pairs with multiple shortest
  // paths the identity still holds in expectation over path *shares*
  // (Brandes splits fractionally), so we compare against Σ (d−1).
  double distance_total = 0.0;
  const size_t n = g.node_count();
  for (NodeId s = 0; s < n; ++s) {
    std::vector<int64_t> dist(n, -1);
    std::deque<NodeId> queue{s};
    dist[s] = 0;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (NodeId w : g.Neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
      }
    }
    for (NodeId t = s + 1; t < n; ++t) {
      if (dist[t] > 0) {
        distance_total += static_cast<double>(dist[t] - 1);
      }
    }
  }
  EXPECT_NEAR(betweenness_total, distance_total, 1e-6);
}

TEST_P(GraphPropertyTest, SampledBetweennessIsUnbiasedEnough) {
  // Averaging many sampled runs approaches the exact values.
  const Graph g = RandomGraph(30, 60, GetParam());
  const auto exact = BetweennessExact(g);
  std::vector<double> accumulated(g.node_count(), 0.0);
  const size_t runs = 40;
  for (size_t r = 0; r < runs; ++r) {
    Rng rng(GetParam() * 1000 + r);
    const auto sampled = BetweennessSampled(g, 10, rng);
    for (size_t i = 0; i < sampled.size(); ++i) {
      accumulated[i] += sampled[i];
    }
  }
  double exact_total = 0.0;
  double sampled_total = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    exact_total += exact[i];
    sampled_total += accumulated[i] / static_cast<double>(runs);
  }
  if (exact_total > 0.0) {
    EXPECT_NEAR(sampled_total / exact_total, 1.0, 0.15);
  }
}

TEST_P(GraphPropertyTest, BridgingCoefficientFiniteAndNonNegative) {
  const Graph g = RandomGraph(40, 70, GetParam());
  for (double c : BridgingCoefficient(g)) {
    EXPECT_GE(c, 0.0);
    EXPECT_TRUE(std::isfinite(c));
  }
}

}  // namespace
}  // namespace evorec::graph

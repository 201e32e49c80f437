// Differential tests of the recommender's hoisted per-user path:
//  - the null-policy path, which scores every user straight off the
//    shared pool's precomputed weights, term index and distances,
//    against the per-call path an (empty) access policy takes, which
//    derives all of them from its gated copy;
//  - the swap search and MMR selector against test-local copies of
//    the plain loops: MMR on per-pair CandidateDistance, the swap
//    search re-scoring every trial with MmrObjective;
//  - the top-term weights and term index against the formulas they
//    replace.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "anonymity/access_policy.h"
#include "common/random.h"
#include "expect_identical_lists.h"
#include "recommend/recommender.h"
#include "workload/profile_generator.h"
#include "workload/scenarios.h"

namespace evorec::recommend {
namespace {

using test_support::ExpectIdenticalLists;

workload::Scenario DifferentialScenario() {
  workload::ScenarioScale scale;
  scale.classes = 60;
  scale.properties = 20;
  scale.instances = 600;
  scale.edges = 1100;
  scale.versions = 2;
  scale.operations = 200;
  return workload::MakeDbpediaLike(29, scale);
}

// Every profile of the scenario plus a seeded population drawn over
// its schema.
std::vector<profile::HumanProfile> ScenarioUsers(
    const workload::Scenario& scenario,
    const measures::EvolutionContext& ctx) {
  std::vector<profile::HumanProfile> users(scenario.curators.members());
  users.push_back(scenario.end_user);
  Rng rng(4242);
  for (size_t i = 0; i < 10; ++i) {
    users.push_back(workload::GenerateProfile(
        "generated-" + std::to_string(i), ctx.view_after(), {}, rng));
  }
  users[1].SetCategoryAffinity(measures::MeasureCategory::kStructural, 0.4);
  return users;
}

TEST(RecommenderDifferentialTest, SharedPathMatchesEmptyPolicyGatedPath) {
  workload::Scenario scenario = DifferentialScenario();
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  auto ctx = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  const std::vector<profile::HumanProfile> users =
      ScenarioUsers(scenario, *ctx);
  const anonymity::AccessPolicy empty_policy;

  for (DiversityKind kind : {DiversityKind::kContent, DiversityKind::kNovelty,
                             DiversityKind::kSemantic}) {
    for (double novelty_weight : {0.0, 0.3}) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   ", novelty_weight " + std::to_string(novelty_weight));
      RecommenderOptions options;
      options.diversity = kind;
      options.novelty_weight = novelty_weight;
      options.record_seen = true;
      const Recommender shared_path(registry, options);
      Recommender gated_path(registry, options);
      gated_path.AttachAccessPolicy(&empty_policy);

      auto shared = shared_path.PrepareShared(*ctx);
      ASSERT_TRUE(shared.ok()) << shared.status().ToString();
      // An empty policy hides nothing, but the gate still drops
      // candidates without a positive score; the paths only compare
      // when there are none.
      ASSERT_FALSE(shared->pool.empty());
      for (const MeasureCandidate& candidate : shared->pool) {
        ASSERT_GT(candidate.report.TotalScore(), 0.0) << candidate.id;
      }
      ASSERT_EQ(shared->weights.size(), shared->pool.size());
      ASSERT_EQ(shared->terms.size(), shared->pool.size());

      std::vector<profile::HumanProfile> shared_users = users;
      std::vector<profile::HumanProfile> gated_users = users;
      for (int round = 0; round < 2; ++round) {
        for (size_t u = 0; u < users.size(); ++u) {
          SCOPED_TRACE("round " + std::to_string(round) + ", user " +
                       users[u].id());
          auto expected = shared_path.RecommendForUser(*shared,
                                                       shared_users[u]);
          auto actual = gated_path.RecommendForUser(*shared, gated_users[u]);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString();
          ASSERT_TRUE(actual.ok()) << actual.status().ToString();
          ASSERT_FALSE(expected->items.empty());
          ExpectIdenticalLists(*actual, *expected);
          EXPECT_EQ(gated_users[u].seen_count(),
                    shared_users[u].seen_count());
        }
      }

      profile::Group shared_group = scenario.curators;
      profile::Group gated_group = scenario.curators;
      for (int round = 0; round < 2; ++round) {
        auto expected = shared_path.RecommendForGroup(*shared, shared_group);
        auto actual = gated_path.RecommendForGroup(*shared, gated_group);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        ExpectIdenticalLists(*actual, *expected);
      }
    }
  }
}

// ------------------------------------------------------ swap search

// Seeded pool whose candidates draw top terms from a small universe
// (so distances take few distinct values) and whose relevance is
// quantised to eighths (so objectives tie exactly).
struct RandomPool {
  std::vector<MeasureCandidate> candidates;
  std::vector<double> relevance;
};

RandomPool MakeRandomPool(uint64_t seed, size_t n) {
  Rng rng(seed);
  RandomPool pool;
  for (size_t i = 0; i < n; ++i) {
    MeasureCandidate c;
    c.id = "c" + std::to_string(i);
    c.measure.category =
        static_cast<measures::MeasureCategory>(rng.UniformInt(0, 2));
    c.measure.scope = rng.Bernoulli(0.5) ? measures::MeasureScope::kClass
                                         : measures::MeasureScope::kProperty;
    const int64_t terms = rng.UniformInt(0, 5);
    for (int64_t t = 0; t < terms; ++t) {
      c.top_terms.push_back(static_cast<rdf::TermId>(rng.UniformInt(1, 12)));
    }
    pool.candidates.push_back(std::move(c));
    pool.relevance.push_back(static_cast<double>(rng.UniformInt(0, 8)) / 8.0);
  }
  return pool;
}

// The plain greedy MMR: one CandidateDistance per (candidate, pick).
std::vector<size_t> ReferenceSelectMmr(
    const std::vector<MeasureCandidate>& candidates,
    const std::vector<double>& relevance, size_t k, double lambda,
    DiversityKind kind) {
  const size_t n = candidates.size();
  std::vector<size_t> selected;
  std::vector<bool> used(n, false);
  std::vector<double> min_distance(n, 1.0);
  while (selected.size() < std::min(k, n)) {
    size_t best = n;
    double best_score = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const double score = selected.empty()
                               ? relevance[i]
                               : lambda * relevance[i] +
                                     (1.0 - lambda) * min_distance[i];
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == n) break;
    used[best] = true;
    selected.push_back(best);
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      min_distance[i] = std::min(
          min_distance[i],
          CandidateDistance(candidates[i], candidates[best], kind));
    }
  }
  return selected;
}

// The plain swap search: every trial swap re-scores the whole set
// with MmrObjective.
std::vector<size_t> ReferenceImproveBySwaps(
    const std::vector<MeasureCandidate>& candidates,
    const std::vector<double>& relevance, std::vector<size_t> selection,
    double lambda, DiversityKind kind, size_t max_rounds,
    const DistanceMatrix& distances) {
  const size_t n = candidates.size();
  std::vector<bool> used(n, false);
  for (size_t index : selection) used[index] = true;
  double current = MmrObjective(candidates, relevance, selection, lambda,
                                kind, &distances);
  for (size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (size_t pos = 0; pos < selection.size(); ++pos) {
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        const size_t old_index = selection[pos];
        selection[pos] = i;
        const double candidate_objective = MmrObjective(
            candidates, relevance, selection, lambda, kind, &distances);
        if (candidate_objective > current + 1e-12) {
          current = candidate_objective;
          used[old_index] = false;
          used[i] = true;
          improved = true;
        } else {
          selection[pos] = old_index;
        }
      }
    }
    if (!improved) break;
  }
  return selection;
}

TEST(SwapSearchDifferentialTest, MatchesPlainLoopsWithAndWithoutMatrix) {
  size_t trials = 0;
  size_t changed_by_swaps = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const size_t n = 1 + seed % 37;
    const RandomPool pool = MakeRandomPool(seed, n);
    for (DiversityKind kind : {DiversityKind::kContent,
                               DiversityKind::kNovelty,
                               DiversityKind::kSemantic}) {
      const DistanceMatrix matrix =
          DistanceMatrix::Build(pool.candidates, kind);
      for (double lambda : {0.0, 0.3, 0.7, 1.0}) {
        for (size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + ", kind " +
                       std::to_string(static_cast<int>(kind)) + ", lambda " +
                       std::to_string(lambda) + ", k " + std::to_string(k));
          ++trials;
          const std::vector<size_t> greedy = ReferenceSelectMmr(
              pool.candidates, pool.relevance, k, lambda, kind);
          EXPECT_EQ(SelectMmr(pool.candidates, pool.relevance, k, lambda,
                              kind),
                    greedy);
          EXPECT_EQ(SelectMmr(pool.candidates, pool.relevance, k, lambda,
                              kind, &matrix),
                    greedy);

          // Start from the greedy pick and from a deliberately poor
          // one (the last k candidates) so that swaps happen.
          std::vector<size_t> poor;
          for (size_t i = n - std::min(k, n); i < n; ++i) poor.push_back(i);
          for (const std::vector<size_t>& start : {greedy, poor}) {
            const std::vector<size_t> expected =
                ReferenceImproveBySwaps(pool.candidates, pool.relevance,
                                        start, lambda, kind, 4, matrix);
            if (expected != start) ++changed_by_swaps;
            // The matrix holds exactly the per-pair distances.
            EXPECT_EQ(MmrObjective(pool.candidates, pool.relevance, expected,
                                   lambda, kind),
                      MmrObjective(pool.candidates, pool.relevance, expected,
                                   lambda, kind, &matrix));
            EXPECT_EQ(ImproveBySwaps(pool.candidates, pool.relevance, start,
                                     lambda, kind, 4),
                      expected);
            EXPECT_EQ(ImproveBySwaps(pool.candidates, pool.relevance, start,
                                     lambda, kind, 4, &matrix),
                      expected);
            EXPECT_EQ(ImproveBySwaps(pool.candidates, pool.relevance, start,
                                     lambda, kind, 1, &matrix),
                      ReferenceImproveBySwaps(pool.candidates, pool.relevance,
                                              start, lambda, kind, 1, matrix));
          }
        }
      }
    }
  }
  EXPECT_EQ(trials, 60u * 3 * 4 * 4);
  // The comparison means something only if the search moves often.
  EXPECT_GT(changed_by_swaps, trials / 4);
}

// ------------------------------------------- weights and term index

MeasureCandidate CandidateWithReport(std::vector<measures::ScoredTerm> scores,
                                     size_t top_k) {
  MeasureCandidate c;
  c.report = measures::MeasureReport(std::move(scores));
  c.top_terms = c.report.TopKTerms(top_k);
  return c;
}

TEST(TopTermWeightsTest, MatchesFlooredNormalizedScores) {
  std::vector<MeasureCandidate> candidates = {
      CandidateWithReport({}, 10),
      CandidateWithReport({{4, 2.0}, {4, 9.0}, {7, 2.0}}, 10),  // duplicate
      CandidateWithReport({{1, 3.0}, {2, 3.0}, {3, 3.0}}, 2),   // constant
      CandidateWithReport({{1, -1.0}, {2, 0.5}, {3, 4.0}, {9, 0.0}}, 3),
  };
  MeasureCandidate extra_term = CandidateWithReport({{5, 1.0}, {6, 2.0}}, 2);
  extra_term.top_terms.push_back(99);  // not in the report
  candidates.push_back(extra_term);
  Rng rng(77);
  for (int c = 0; c < 20; ++c) {
    std::vector<measures::ScoredTerm> scores;
    const int64_t size = rng.UniformInt(1, 40);
    for (int64_t i = 0; i < size; ++i) {
      scores.push_back({static_cast<rdf::TermId>(rng.UniformInt(1, 30)),
                        rng.UniformDouble(-5.0, 50.0)});
    }
    candidates.push_back(CandidateWithReport(std::move(scores), 10));
  }

  for (const MeasureCandidate& candidate : candidates) {
    const measures::MeasureReport normalized = candidate.report.Normalized();
    const TopTermWeights weights = ComputeTopTermWeights(candidate);
    ASSERT_EQ(weights.weights.size(), candidate.top_terms.size());
    double total = 0.0;
    for (size_t t = 0; t < candidate.top_terms.size(); ++t) {
      const double w =
          std::max(normalized.ScoreOf(candidate.top_terms[t]), 0.1);
      EXPECT_EQ(weights.weights[t], w);
      total += w;
    }
    EXPECT_EQ(weights.total, total);
  }

  // The term index gathers exactly each candidate's TopTermInterests.
  const std::unordered_map<rdf::TermId, double> interests = {
      {1, 1.0}, {4, 0.25}, {7, 0.0}, {99, 0.5}, {12, 0.75}};
  const TopTermIndex index(candidates);
  ASSERT_EQ(index.size(), candidates.size());
  const std::vector<const double*> gathered = index.Gather(interests);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const std::vector<const double*> expected =
        TopTermInterests(candidates[c], interests);
    for (size_t t = 0; t < expected.size(); ++t) {
      EXPECT_EQ(gathered[index.offset(c) + t], expected[t]);
    }
    const size_t end =
        c + 1 < candidates.size() ? index.offset(c + 1) : gathered.size();
    EXPECT_EQ(end - index.offset(c), expected.size());
  }
}

}  // namespace
}  // namespace evorec::recommend

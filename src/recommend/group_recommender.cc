#include "recommend/group_recommender.h"

namespace evorec::recommend {

UtilityMatrix BuildUtilityMatrix(const std::vector<MeasureCandidate>& pool,
                                 const profile::Group& group,
                                 const RelatednessScorer& scorer) {
  UtilityMatrix utilities(group.size(),
                          std::vector<double>(pool.size(), 0.0));
  // Top-term weights and the term index once per pool, one interest
  // expansion per member — not per (member, candidate).
  std::vector<TopTermWeights> weights;
  weights.reserve(pool.size());
  for (const MeasureCandidate& candidate : pool) {
    weights.push_back(ComputeTopTermWeights(candidate));
  }
  const TopTermIndex index(pool);
  for (size_t m = 0; m < group.size(); ++m) {
    const profile::HumanProfile& member = group.members()[m];
    const auto expanded = scorer.ExpandInterests(member);
    const std::vector<const double*> interests = index.Gather(expanded);
    for (size_t c = 0; c < pool.size(); ++c) {
      utilities[m][c] = scorer.ScoreExpanded(
          interests.data() + index.offset(c), member, pool[c], weights[c]);
    }
  }
  return utilities;
}

GroupSelection SelectForGroup(const std::vector<MeasureCandidate>& pool,
                              const profile::Group& group,
                              const RelatednessScorer& scorer,
                              const GroupSelectOptions& options) {
  GroupSelection result;
  result.utilities = BuildUtilityMatrix(pool, group, scorer);
  if (pool.empty() || group.empty()) return result;

  if (options.fairness_aware) {
    result.selection =
        SelectFairPackage(result.utilities, options.package_size);
  } else {
    result.selection = SelectByAggregation(
        result.utilities, options.package_size, options.aggregation);
  }

  if (options.diversify && result.selection.size() > 1) {
    // Aggregated utility per candidate serves as the relevance vector
    // for the diversity swap search.
    std::vector<double> aggregated(pool.size(), 0.0);
    std::vector<double> member_utilities(group.size());
    for (size_t c = 0; c < pool.size(); ++c) {
      for (size_t m = 0; m < group.size(); ++m) {
        member_utilities[m] = result.utilities[m][c];
      }
      aggregated[c] = AggregateUtility(member_utilities, options.aggregation);
    }
    result.selection =
        ImproveBySwaps(pool, aggregated, result.selection,
                       options.mmr_lambda, options.diversity);
  }

  result.fairness = EvaluatePackage(result.utilities, result.selection);
  result.set_diversity =
      SetDiversity(pool, result.selection, options.diversity);
  return result;
}

}  // namespace evorec::recommend

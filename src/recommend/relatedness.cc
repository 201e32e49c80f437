#include "recommend/relatedness.h"

#include <algorithm>
#include <cmath>
#include <deque>

namespace evorec::recommend {

RelatednessScorer::RelatednessScorer(const measures::EvolutionContext& ctx,
                                     RelatednessOptions options)
    : ctx_(ctx), options_(options) {}

std::unordered_map<rdf::TermId, double> RelatednessScorer::ExpandInterests(
    const profile::HumanProfile& profile) const {
  std::unordered_map<rdf::TermId, double> expanded(
      profile.interests().begin(), profile.interests().end());

  if (options_.propagation_hops > 0 && options_.propagation_decay > 0.0) {
    const schema::ClassHierarchy& before = ctx_.view_before().hierarchy();
    const schema::ClassHierarchy& after = ctx_.view_after().hierarchy();
    // BFS from every seeded interest through both versions'
    // hierarchies; combine weights with max so repeated paths don't
    // inflate.
    std::unordered_map<rdf::TermId, size_t> hop;
    std::deque<rdf::TermId> queue;
    for (const auto& [seed, weight] : profile.interests()) {
      hop.clear();
      hop.emplace(seed, 0);
      queue.push_back(seed);
      while (!queue.empty()) {
        const rdf::TermId node = queue.front();
        queue.pop_front();
        const size_t h = hop[node];
        if (h >= options_.propagation_hops) continue;
        auto visit = [&](rdf::TermId next) {
          if (hop.count(next)) return;
          hop[next] = h + 1;
          const double propagated =
              weight *
              std::pow(options_.propagation_decay, static_cast<double>(h + 1));
          auto it = expanded.find(next);
          if (it == expanded.end() || it->second < propagated) {
            expanded[next] = propagated;
          }
          queue.push_back(next);
        };
        for (rdf::TermId p : before.Parents(node)) visit(p);
        for (rdf::TermId c : before.Children(node)) visit(c);
        for (rdf::TermId p : after.Parents(node)) visit(p);
        for (rdf::TermId c : after.Children(node)) visit(c);
      }
    }
  }

  // Normalise the strongest interest to 1 so relatedness lands in
  // [0,1] regardless of the profile's weight scale.
  double max_weight = 0.0;
  for (const auto& [term, weight] : expanded) {
    (void)term;
    max_weight = std::max(max_weight, weight);
  }
  if (max_weight > 0.0) {
    for (auto& [term, weight] : expanded) {
      (void)term;
      weight /= max_weight;
    }
  }
  return expanded;
}

TopTermWeights ComputeTopTermWeights(const MeasureCandidate& candidate) {
  // Min-max normalisation as in MeasureReport::Normalized(), applied
  // only to the top terms' first entries (what Normalized().ScoreOf
  // reads); constant reports normalise to all-zeros.
  const std::vector<measures::ScoredTerm>& scores = candidate.report.scores();
  double lo = scores.empty() ? 0.0 : scores[0].score;
  double hi = lo;
  for (const measures::ScoredTerm& s : scores) {
    lo = std::min(lo, s.score);
    hi = std::max(hi, s.score);
  }
  const double span = hi - lo;
  TopTermWeights out;
  out.weights.reserve(candidate.top_terms.size());
  for (rdf::TermId term : candidate.top_terms) {
    double normalized = 0.0;
    for (const measures::ScoredTerm& s : scores) {
      if (s.term == term) {
        normalized = span > 0.0 ? (s.score - lo) / span : 0.0;
        break;
      }
    }
    const double w = std::max(normalized, 0.1);
    out.weights.push_back(w);
    out.total += w;
  }
  return out;
}

std::vector<const double*> TopTermInterests(
    const MeasureCandidate& candidate,
    const std::unordered_map<rdf::TermId, double>& expanded_interests) {
  std::vector<const double*> interests;
  interests.reserve(candidate.top_terms.size());
  for (rdf::TermId term : candidate.top_terms) {
    auto it = expanded_interests.find(term);
    interests.push_back(it == expanded_interests.end() ? nullptr
                                                       : &it->second);
  }
  return interests;
}

TopTermIndex::TopTermIndex(const std::vector<MeasureCandidate>& pool) {
  offsets_.reserve(pool.size() + 1);
  for (const MeasureCandidate& candidate : pool) {
    offsets_.push_back(occurrences_.size());
    for (rdf::TermId term : candidate.top_terms) {
      occurrences_.emplace_back(term,
                                static_cast<uint32_t>(occurrences_.size()));
    }
  }
  offsets_.push_back(occurrences_.size());
  std::sort(occurrences_.begin(), occurrences_.end());
}

std::vector<const double*> TopTermIndex::Gather(
    const std::unordered_map<rdf::TermId, double>& expanded_interests) const {
  std::vector<const double*> interests(occurrences_.size(), nullptr);
  for (const auto& [term, interest] : expanded_interests) {
    for (auto it = std::lower_bound(occurrences_.begin(), occurrences_.end(),
                                    std::make_pair(term, uint32_t{0}));
         it != occurrences_.end() && it->first == term; ++it) {
      interests[it->second] = &interest;
    }
  }
  return interests;
}

double RelatednessScorer::Score(const profile::HumanProfile& profile,
                                const MeasureCandidate& candidate) const {
  if (candidate.top_terms.empty()) return 0.0;
  const std::unordered_map<rdf::TermId, double> expanded =
      ExpandInterests(profile);
  return ScoreExpanded(TopTermInterests(candidate, expanded).data(), profile,
                       candidate, ComputeTopTermWeights(candidate));
}

double RelatednessScorer::ScoreExpanded(const double* const* interests,
                                        const profile::HumanProfile& profile,
                                        const MeasureCandidate& candidate,
                                        const TopTermWeights& weights) const {
  if (candidate.top_terms.empty()) return 0.0;
  double weighted = 0.0;
  for (size_t t = 0; t < candidate.top_terms.size(); ++t) {
    if (interests[t] != nullptr) weighted += weights.weights[t] * *interests[t];
  }
  if (weights.total <= 0.0) return 0.0;
  double score = weighted / weights.total;
  if (options_.use_category_affinity) {
    score *= profile.CategoryAffinity(candidate.measure.category);
  }
  return std::clamp(score, 0.0, 1.0);
}

}  // namespace evorec::recommend

#include "profile/profile.h"

#include <cmath>

namespace evorec::profile {

void HumanProfile::SetInterest(rdf::TermId term, double weight) {
  if (weight <= 0.0) {
    interests_.erase(term);
    return;
  }
  interests_[term] = weight;
}

double HumanProfile::InterestIn(rdf::TermId term) const {
  auto it = interests_.find(term);
  return it == interests_.end() ? 0.0 : it->second;
}

void HumanProfile::SetCategoryAffinity(measures::MeasureCategory category,
                                       double weight) {
  category_affinity_[static_cast<int>(category)] = weight;
}

double HumanProfile::CategoryAffinity(
    measures::MeasureCategory category) const {
  auto it = category_affinity_.find(static_cast<int>(category));
  return it == category_affinity_.end() ? 1.0 : it->second;
}

void HumanProfile::RecordSeen(const std::vector<rdf::TermId>& terms) {
  seen_.insert(terms.begin(), terms.end());
}

bool HumanProfile::HasSeen(rdf::TermId term) const {
  return seen_.count(term) > 0;
}

double HumanProfile::NoveltyOf(const std::vector<rdf::TermId>& terms) const {
  if (terms.empty()) return 1.0;
  size_t unseen = 0;
  for (rdf::TermId term : terms) {
    if (!HasSeen(term)) ++unseen;
  }
  return static_cast<double>(unseen) / static_cast<double>(terms.size());
}

double InterestSimilarity(const HumanProfile& a, const HumanProfile& b) {
  if (a.interests().empty() || b.interests().empty()) return 0.0;
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (const auto& [term, weight] : a.interests()) {
    norm_a += weight * weight;
    const double wb = b.InterestIn(term);
    if (wb > 0.0) dot += weight * wb;
  }
  for (const auto& [term, weight] : b.interests()) {
    (void)term;
    norm_b += weight * weight;
  }
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

}  // namespace evorec::profile

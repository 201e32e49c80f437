#ifndef EVOREC_PROFILE_PROFILE_H_
#define EVOREC_PROFILE_PROFILE_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "measures/measure.h"
#include "rdf/term.h"

namespace evorec::profile {

/// A human in the loop (paper §III): curator, editor, or end user. A
/// profile carries
///  - term interests: weights over classes/properties of the KB the
///    human cares about (drives relatedness, §III.a),
///  - category affinities: preference over measure families
///    (count/structural/semantic),
///  - interaction history: term sets already shown to the human
///    (drives novelty-based diversity, §III.c).
class HumanProfile {
 public:
  HumanProfile() = default;
  explicit HumanProfile(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  /// Sets the interest weight of a term (clamped at >= 0; 0 erases).
  void SetInterest(rdf::TermId term, double weight);

  /// Interest weight of `term` (0 when absent).
  double InterestIn(rdf::TermId term) const;

  /// All (term, weight) interests.
  const std::unordered_map<rdf::TermId, double>& interests() const {
    return interests_;
  }

  /// Sets the affinity for a measure category (default 1.0 for all).
  void SetCategoryAffinity(measures::MeasureCategory category, double weight);

  /// Affinity for `category` (1.0 when unset).
  double CategoryAffinity(measures::MeasureCategory category) const;

  /// Records that `terms` were presented to this human (novelty
  /// bookkeeping).
  void RecordSeen(const std::vector<rdf::TermId>& terms);

  /// True iff `term` was presented before.
  bool HasSeen(rdf::TermId term) const;

  /// Number of distinct seen terms.
  size_t seen_count() const { return seen_.size(); }

  /// Fraction of `terms` never presented before (1.0 for empty input).
  double NoveltyOf(const std::vector<rdf::TermId>& terms) const;

 private:
  std::string id_;
  std::unordered_map<rdf::TermId, double> interests_;
  std::unordered_map<int, double> category_affinity_;
  std::unordered_set<rdf::TermId> seen_;
};

/// Cosine similarity of two interest vectors (0 when either is empty).
double InterestSimilarity(const HumanProfile& a, const HumanProfile& b);

}  // namespace evorec::profile

#endif  // EVOREC_PROFILE_PROFILE_H_

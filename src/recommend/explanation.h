#ifndef EVOREC_RECOMMEND_EXPLANATION_H_
#define EVOREC_RECOMMEND_EXPLANATION_H_

#include <string>
#include <vector>

#include "provenance/record.h"
#include "rdf/dictionary.h"
#include "recommend/candidate.h"

namespace evorec::recommend {

/// A human-readable justification of one recommended measure —
/// transparency at the recommendation level (§III.b): what the measure
/// is, where it looks, which of the user's interests it matched, and
/// the provenance record of the pipeline run that produced it.
struct Explanation {
  std::string candidate_id;
  std::string measure_name;
  std::string measure_description;
  std::string category;
  std::string region_label;
  /// IRIs of the most affected terms the user will see first.
  std::vector<std::string> top_affected;
  /// IRIs of the user's interests that the candidate matched.
  std::vector<std::string> matched_interests;
  double relatedness = 0.0;
  double novelty = 0.0;
  /// Provenance record of the producing pipeline stage (valid when
  /// has_provenance).
  provenance::RecordId provenance_record = 0;
  bool has_provenance = false;

  /// Renders a short multi-line justification.
  std::string ToText() const;
};

/// Builds the explanation of `candidate` for one profile from what the
/// recommender already computed for it: the candidate's `relatedness`
/// and `novelty`, and the profile's interest in each top term
/// (TopTermInterests; a top term with a positive interest is a matched
/// interest). Terms are labelled with their IRI in `dictionary`, or
/// their decimal id when the dictionary lacks them.
Explanation BuildExplanation(const MeasureCandidate& candidate,
                             double relatedness, double novelty,
                             const rdf::Dictionary& dictionary,
                             const double* const* interests);

}  // namespace evorec::recommend

#endif  // EVOREC_RECOMMEND_EXPLANATION_H_

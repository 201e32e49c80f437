#include "recommend/explanation.h"

#include "common/strings.h"
#include "measures/measure.h"

namespace evorec::recommend {

Explanation BuildExplanation(const MeasureCandidate& candidate,
                             double relatedness, double novelty,
                             const rdf::Dictionary& dictionary,
                             const double* const* interests) {
  Explanation e;
  e.candidate_id = candidate.id;
  e.measure_name = candidate.measure.name;
  e.measure_description = candidate.measure.description;
  e.category = measures::MeasureCategoryName(candidate.measure.category);
  e.region_label = candidate.region_label;
  e.relatedness = relatedness;
  e.novelty = novelty;
  e.top_affected.reserve(candidate.top_terms.size());
  for (size_t t = 0; t < candidate.top_terms.size(); ++t) {
    const rdf::TermId term = candidate.top_terms[t];
    e.top_affected.push_back(term < dictionary.size()
                                 ? dictionary.term(term).lexical
                                 : std::to_string(term));
    if (interests[t] != nullptr && *interests[t] > 0.0) {
      e.matched_interests.push_back(e.top_affected.back());
    }
  }
  return e;
}

std::string Explanation::ToText() const {
  std::string out;
  out += "measure '" + measure_name + "' (" + category + ") on region '" +
         region_label + "'\n";
  out += "  why: " + measure_description + "\n";
  out += "  relatedness " + FormatDouble(relatedness, 2) + ", novelty " +
         FormatDouble(novelty, 2) + "\n";
  if (!matched_interests.empty()) {
    out += "  matches your interests: " + StrJoin(matched_interests, ", ") +
           "\n";
  }
  if (!top_affected.empty()) {
    out += "  most affected: " + StrJoin(top_affected, ", ") + "\n";
  }
  if (has_provenance) {
    out += "  provenance record #" + std::to_string(provenance_record) + "\n";
  }
  return out;
}

}  // namespace evorec::recommend

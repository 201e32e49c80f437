#ifndef EVOREC_MEASURES_REPORT_H_
#define EVOREC_MEASURES_REPORT_H_

#include <cstddef>
#include <vector>

#include "rdf/term.h"

namespace evorec::measures {

/// One scored term within a measure report.
struct ScoredTerm {
  rdf::TermId term = rdf::kAnyTerm;
  double score = 0.0;
};

/// The output of an evolution measure: a score per class/property,
/// where higher means "more intensely affected by the evolution".
/// Reports are the currency of the recommender: relatedness compares
/// them against profiles, diversity compares them against each other.
class MeasureReport {
 public:
  MeasureReport() = default;
  explicit MeasureReport(std::vector<ScoredTerm> scores);

  const std::vector<ScoredTerm>& scores() const { return scores_; }
  bool empty() const { return scores_.empty(); }
  size_t size() const { return scores_.size(); }

  /// Appends one entry (no dedup; callers build reports term-by-term).
  void Add(rdf::TermId term, double score);

  /// Score of `term`; 0 when absent.
  double ScoreOf(rdf::TermId term) const;

  /// Entries sorted by descending score (ties broken by TermId for
  /// determinism).
  MeasureReport Sorted() const;

  /// The k highest-scored entries (sorted descending).
  std::vector<ScoredTerm> TopK(size_t k) const;

  /// The TermIds of the k highest-scored entries.
  std::vector<rdf::TermId> TopKTerms(size_t k) const;

  /// Min-max normalises scores into [0,1]; constant reports normalise
  /// to all-zeros.
  MeasureReport Normalized() const;

  /// Scores aligned to `universe` (0 for absent terms) — the dense
  /// vector form used by rank-correlation utilities.
  std::vector<double> AlignedScores(
      const std::vector<rdf::TermId>& universe) const;

  /// Sum of all scores.
  double TotalScore() const;

 private:
  std::vector<ScoredTerm> scores_;
};

}  // namespace evorec::measures

#endif  // EVOREC_MEASURES_REPORT_H_

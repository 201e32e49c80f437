#include "measures/report.h"

#include <algorithm>


namespace evorec::measures {

MeasureReport::MeasureReport(std::vector<ScoredTerm> scores)
    : scores_(std::move(scores)) {}

void MeasureReport::Add(rdf::TermId term, double score) {
  scores_.push_back({term, score});
}

double MeasureReport::ScoreOf(rdf::TermId term) const {
  for (const ScoredTerm& s : scores_) {
    if (s.term == term) return s.score;
  }
  return 0.0;
}

namespace {

bool ScoreDesc(const ScoredTerm& a, const ScoredTerm& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.term < b.term;
}

}  // namespace

MeasureReport MeasureReport::Sorted() const {
  std::vector<ScoredTerm> sorted = scores_;
  std::sort(sorted.begin(), sorted.end(), ScoreDesc);
  return MeasureReport(std::move(sorted));
}

std::vector<ScoredTerm> MeasureReport::TopK(size_t k) const {
  std::vector<ScoredTerm> sorted = scores_;
  const size_t take = std::min(k, sorted.size());
  std::partial_sort(sorted.begin(), sorted.begin() + take, sorted.end(),
                    ScoreDesc);
  sorted.resize(take);
  return sorted;
}

std::vector<rdf::TermId> MeasureReport::TopKTerms(size_t k) const {
  std::vector<rdf::TermId> terms;
  for (const ScoredTerm& s : TopK(k)) {
    terms.push_back(s.term);
  }
  return terms;
}

MeasureReport MeasureReport::Normalized() const {
  if (scores_.empty()) return {};
  double lo = scores_[0].score;
  double hi = scores_[0].score;
  for (const ScoredTerm& s : scores_) {
    lo = std::min(lo, s.score);
    hi = std::max(hi, s.score);
  }
  std::vector<ScoredTerm> out = scores_;
  const double span = hi - lo;
  for (ScoredTerm& s : out) {
    s.score = span > 0.0 ? (s.score - lo) / span : 0.0;
  }
  return MeasureReport(std::move(out));
}

std::vector<double> MeasureReport::AlignedScores(
    const std::vector<rdf::TermId>& universe) const {
  std::vector<double> out(universe.size(), 0.0);
  for (const ScoredTerm& s : scores_) {
    auto it = std::lower_bound(universe.begin(), universe.end(), s.term);
    if (it != universe.end() && *it == s.term) {
      out[static_cast<size_t>(it - universe.begin())] = s.score;
    }
  }
  return out;
}

double MeasureReport::TotalScore() const {
  double total = 0.0;
  for (const ScoredTerm& s : scores_) total += s.score;
  return total;
}

}  // namespace evorec::measures

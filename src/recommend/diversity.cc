#include "recommend/diversity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/statistics.h"

namespace evorec::recommend {

double CandidateDistance(const MeasureCandidate& a, const MeasureCandidate& b,
                         DiversityKind kind) {
  std::vector<uint32_t> ta(a.top_terms.begin(), a.top_terms.end());
  std::vector<uint32_t> tb(b.top_terms.begin(), b.top_terms.end());
  const double content = 1.0 - JaccardSimilarity(std::move(ta), std::move(tb));
  switch (kind) {
    case DiversityKind::kContent:
    case DiversityKind::kNovelty:
      return content;
    case DiversityKind::kSemantic: {
      const double category_diff =
          a.measure.category != b.measure.category ? 1.0 : 0.0;
      const double scope_diff = a.measure.scope != b.measure.scope ? 1.0 : 0.0;
      return 0.5 * category_diff + 0.2 * scope_diff + 0.3 * content;
    }
  }
  return content;
}

double NoveltyScore(const profile::HumanProfile& profile,
                    const MeasureCandidate& candidate) {
  return profile.NoveltyOf(candidate.top_terms);
}

DistanceMatrix DistanceMatrix::Build(
    const std::vector<MeasureCandidate>& candidates, DiversityKind kind) {
  DistanceMatrix matrix;
  matrix.n_ = candidates.size();
  matrix.values_.assign(matrix.n_ * matrix.n_, 0.0);
  for (size_t i = 0; i < matrix.n_; ++i) {
    for (size_t j = i + 1; j < matrix.n_; ++j) {
      const double d = CandidateDistance(candidates[i], candidates[j], kind);
      matrix.values_[i * matrix.n_ + j] = d;
      matrix.values_[j * matrix.n_ + i] = d;
    }
  }
  return matrix;
}

namespace {

// The matrix a selector reads: the caller's when it covers the pool,
// else one built into `local`.
const DistanceMatrix& CoveringMatrix(
    const std::vector<MeasureCandidate>& candidates, DiversityKind kind,
    const DistanceMatrix* distances, DistanceMatrix& local) {
  if (distances != nullptr && distances->size() == candidates.size()) {
    return *distances;
  }
  local = DistanceMatrix::Build(candidates, kind);
  return local;
}

}  // namespace

double SetDiversity(const std::vector<MeasureCandidate>& candidates,
                    const std::vector<size_t>& selection, DiversityKind kind,
                    const DistanceMatrix* distances) {
  if (selection.size() < 2) return 1.0;
  // A set has far fewer pairs than the pool, so without a covering
  // matrix the pairs are computed directly rather than building one.
  const bool covered =
      distances != nullptr && distances->size() == candidates.size();
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < selection.size(); ++i) {
    for (size_t j = i + 1; j < selection.size(); ++j) {
      total += covered ? distances->at(selection[i], selection[j])
                       : CandidateDistance(candidates[selection[i]],
                                           candidates[selection[j]], kind);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

double CategoryCoverage(const std::vector<MeasureCandidate>& candidates,
                        const std::vector<size_t>& selection) {
  std::unordered_set<int> covered;
  for (size_t index : selection) {
    covered.insert(static_cast<int>(candidates[index].measure.category));
  }
  return static_cast<double>(covered.size()) / 3.0;
}

std::vector<size_t> SelectMmr(const std::vector<MeasureCandidate>& candidates,
                              const std::vector<double>& relevance, size_t k,
                              double lambda, DiversityKind kind,
                              const DistanceMatrix* distances) {
  const size_t n = candidates.size();
  std::vector<size_t> selected;
  if (std::min(k, n) == 0) return selected;
  DistanceMatrix local;
  const DistanceMatrix& matrix =
      CoveringMatrix(candidates, kind, distances, local);
  std::vector<bool> used(n, false);
  // Min distance from each candidate to the selected set, updated
  // incrementally from the last pick's matrix row.
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
    const double* row = matrix.row(best);
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      min_distance[i] = std::min(min_distance[i], row[i]);
    }
  }
  return selected;
}

std::vector<size_t> SelectMaxMin(
    const std::vector<MeasureCandidate>& candidates,
    const std::vector<double>& relevance, size_t k, DiversityKind kind) {
  const size_t n = candidates.size();
  std::vector<size_t> selected;
  std::vector<bool> used(n, false);
  std::vector<double> min_distance(n, 1.0);
  while (selected.size() < std::min(k, n)) {
    size_t best = n;
    double best_primary = -1.0;
    double best_tie = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const double primary = selected.empty() ? relevance[i] : min_distance[i];
      const double tie = relevance[i];
      if (primary > best_primary ||
          (primary == best_primary && tie > best_tie)) {
        best_primary = primary;
        best_tie = tie;
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

double MmrObjective(const std::vector<MeasureCandidate>& candidates,
                    const std::vector<double>& relevance,
                    const std::vector<size_t>& selection, double lambda,
                    DiversityKind kind, const DistanceMatrix* distances) {
  if (selection.empty()) return 0.0;
  double mean_relevance = 0.0;
  for (size_t index : selection) mean_relevance += relevance[index];
  mean_relevance /= static_cast<double>(selection.size());
  const double diversity =
      SetDiversity(candidates, selection, kind, distances);
  return lambda * mean_relevance + (1.0 - lambda) * diversity;
}

std::vector<size_t> ImproveBySwaps(
    const std::vector<MeasureCandidate>& candidates,
    const std::vector<double>& relevance, std::vector<size_t> selection,
    double lambda, DiversityKind kind, size_t max_rounds,
    const DistanceMatrix* distances) {
  const size_t n = candidates.size();
  const size_t k = selection.size();
  if (k == 0 || max_rounds == 0) return selection;
  DistanceMatrix local;
  const DistanceMatrix& matrix =
      CoveringMatrix(candidates, kind, distances, local);
  std::vector<bool> used(n, false);
  for (size_t index : selection) used[index] = true;
  double current =
      MmrObjective(candidates, relevance, selection, lambda, kind, &matrix);

  // The objective after swapping selection[pos] for i differs from the
  // current one only in rel[old] → rel[i] and in the old and new
  // members' distances to the rest of the set, so it is estimated in
  // O(1) from the relevance sum, the pairwise distance sum and each
  // candidate's distance sum to the selection. The estimate and the
  // exact objective are both sums of at most k² terms bounded by the
  // inputs' magnitude, so they differ by less than `margin`: a trial
  // estimated below the bar by more than that cannot pass it.
  double relevance_scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    relevance_scale = std::max(relevance_scale, std::abs(relevance[i]));
  }
  const double slack = static_cast<double>((k + 6) * (k + 6));
  const double margin = 4.0 * slack * std::numeric_limits<double>::epsilon() *
                        (std::abs(lambda) * relevance_scale +
                         std::abs(1.0 - lambda) + 1.0);
  const double size = static_cast<double>(k);
  const double pairs = static_cast<double>(k * (k - 1) / 2);
  double relevance_sum = 0.0;
  double distance_sum = 0.0;
  std::vector<double> distance_to_selection(n, 0.0);
  const auto summarise = [&] {
    relevance_sum = 0.0;
    distance_sum = 0.0;
    std::fill(distance_to_selection.begin(), distance_to_selection.end(),
              0.0);
    for (size_t a = 0; a < k; ++a) {
      relevance_sum += relevance[selection[a]];
      const double* row = matrix.row(selection[a]);
      for (size_t b = a + 1; b < k; ++b) distance_sum += row[selection[b]];
      for (size_t i = 0; i < n; ++i) distance_to_selection[i] += row[i];
    }
  };
  summarise();

  for (size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (size_t pos = 0; pos < k; ++pos) {
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        const size_t old_index = selection[pos];
        const double trial_relevance =
            relevance_sum - relevance[old_index] + relevance[i];
        const double trial_distance =
            distance_sum - distance_to_selection[old_index] +
            matrix.at(old_index, old_index) + distance_to_selection[i] -
            matrix.at(i, old_index);
        const double estimate =
            lambda * (trial_relevance / size) +
            (1.0 - lambda) * (k < 2 ? 1.0 : trial_distance / pairs);
        if (estimate + margin < current + 1e-12) continue;
        selection[pos] = i;
        const double candidate_objective = MmrObjective(
            candidates, relevance, selection, lambda, kind, &matrix);
        if (candidate_objective > current + 1e-12) {
          current = candidate_objective;
          used[old_index] = false;
          used[i] = true;
          improved = true;
          summarise();
        } else {
          selection[pos] = old_index;
        }
      }
    }
    if (!improved) break;
  }
  return selection;
}

}  // namespace evorec::recommend

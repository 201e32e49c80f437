#ifndef EVOREC_RECOMMEND_DIVERSITY_H_
#define EVOREC_RECOMMEND_DIVERSITY_H_

#include <cstddef>
#include <vector>

#include "profile/profile.h"
#include "recommend/candidate.h"

namespace evorec::recommend {

/// The paper's three diversity flavours (§III.c, after Drosou &
/// Pitoura [4]).
enum class DiversityKind {
  kContent,   ///< dissimilar items: low top-term overlap
  kNovelty,   ///< new w.r.t. what the human has already seen
  kSemantic,  ///< different measure categories / focus regions
};

/// Pairwise distance between two candidates in [0,1] under `kind`.
///  - content:  1 − Jaccard(topTerms(a), topTerms(b))
///  - semantic: 0.5·[different category] + 0.2·[different scope]
///              + 0.3·(1 − Jaccard of top terms)
///  - novelty:  falls back to content distance (novelty is a
///    profile-relative property; see NoveltyScore).
double CandidateDistance(const MeasureCandidate& a, const MeasureCandidate& b,
                         DiversityKind kind);

/// Novelty of `candidate` for `profile`: fraction of its top terms the
/// profile has never been shown (§III.c "novelty-based").
double NoveltyScore(const profile::HumanProfile& profile,
                    const MeasureCandidate& candidate);

/// Precomputed pairwise CandidateDistance values of one pool under one
/// DiversityKind. Distances are user-independent, so a shared pool
/// builds the matrix once and every per-user selection reuses it. The
/// selectors below read a caller's matrix when it covers their pool
/// and build one otherwise, so results are identical with or without
/// it.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;

  static DistanceMatrix Build(const std::vector<MeasureCandidate>& candidates,
                              DiversityKind kind);

  bool empty() const { return n_ == 0; }
  /// Number of candidates the matrix covers.
  size_t size() const { return n_; }
  double at(size_t i, size_t j) const { return values_[i * n_ + j]; }
  /// Distances from candidate `i` to every candidate (row i).
  const double* row(size_t i) const { return values_.data() + i * n_; }

 private:
  size_t n_ = 0;
  std::vector<double> values_;
};

/// Mean pairwise distance of the selected set; 1.0 for sets smaller
/// than two (a singleton cannot be redundant). `distances` (covering
/// `candidates`) skips the per-pair recomputation.
double SetDiversity(const std::vector<MeasureCandidate>& candidates,
                    const std::vector<size_t>& selection, DiversityKind kind,
                    const DistanceMatrix* distances = nullptr);

/// How many distinct measure categories the selection covers, in
/// [0,1] (covered / 3).
double CategoryCoverage(const std::vector<MeasureCandidate>& candidates,
                        const std::vector<size_t>& selection);

/// Greedy Maximal Marginal Relevance: picks k candidates maximising
///   λ·relevance(c) + (1−λ)·min_{s ∈ selected} distance(c, s)
/// (the first pick is pure relevance). λ=1 reduces to top-k relevance,
/// λ=0 to pure diversification — the E6 sweep.
std::vector<size_t> SelectMmr(const std::vector<MeasureCandidate>& candidates,
                              const std::vector<double>& relevance, size_t k,
                              double lambda, DiversityKind kind,
                              const DistanceMatrix* distances = nullptr);

/// Greedy Max-Min diversification: first pick by relevance, then each
/// pick maximises the minimum distance to the selected set (relevance
/// used only to break ties).
std::vector<size_t> SelectMaxMin(
    const std::vector<MeasureCandidate>& candidates,
    const std::vector<double>& relevance, size_t k, DiversityKind kind);

/// Local-search improvement: repeatedly swaps a selected candidate for
/// an unselected one when the swap improves the MMR objective by more
/// than 1e-12; at most `max_rounds` full passes. Returns the improved
/// selection. Each trial swap is first estimated in O(1) from the
/// candidates' distance sums to the selection; only a trial whose
/// estimate comes within rounding error of the bar is scored with
/// MmrObjective, which alone decides.
std::vector<size_t> ImproveBySwaps(
    const std::vector<MeasureCandidate>& candidates,
    const std::vector<double>& relevance, std::vector<size_t> selection,
    double lambda, DiversityKind kind, size_t max_rounds = 4,
    const DistanceMatrix* distances = nullptr);

/// The MMR set objective: λ·(mean relevance) + (1−λ)·(set diversity).
double MmrObjective(const std::vector<MeasureCandidate>& candidates,
                    const std::vector<double>& relevance,
                    const std::vector<size_t>& selection, double lambda,
                    DiversityKind kind,
                    const DistanceMatrix* distances = nullptr);

}  // namespace evorec::recommend

#endif  // EVOREC_RECOMMEND_DIVERSITY_H_

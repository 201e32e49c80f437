#ifndef EVOREC_RECOMMEND_RELATEDNESS_H_
#define EVOREC_RECOMMEND_RELATEDNESS_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "measures/measure_context.h"
#include "profile/profile.h"
#include "recommend/candidate.h"

namespace evorec::recommend {

/// Options for relatedness scoring (paper §III.a).
struct RelatednessOptions {
  /// Interests propagate through the subsumption hierarchy: a user
  /// interested in Person is somewhat interested in its sub- and
  /// superclasses. Weight multiplies by `propagation_decay` per hop,
  /// up to `propagation_hops` hops; 0 hops disables propagation (the
  /// E5 ablation).
  double propagation_decay = 0.5;
  size_t propagation_hops = 2;
  /// Multiply scores by the profile's affinity for the measure's
  /// category.
  bool use_category_affinity = true;
};

/// The user-independent half of a candidate's relatedness score: one
/// weight per top term, aligned with candidate.top_terms, plus their
/// sum. A term's weight is its min-max normalised report score with a
/// floor of 0.1, so a candidate whose scores are all equal still
/// differentiates by interest overlap.
struct TopTermWeights {
  std::vector<double> weights;
  double total = 0.0;
};

/// The weights of `candidate`'s top terms. Shared pools compute them
/// once for all users; gated and group pools once per candidate.
TopTermWeights ComputeTopTermWeights(const MeasureCandidate& candidate);

/// A profile's expanded interest in each of `candidate`'s top terms,
/// aligned with top_terms: a pointer into `expanded_interests`, or
/// nullptr where the profile has no interest in the term.
std::vector<const double*> TopTermInterests(
    const MeasureCandidate& candidate,
    const std::unordered_map<rdf::TermId, double>& expanded_interests);

/// Where the top terms of a candidate pool occur. A pool's candidates
/// share most of their top terms and a profile's expanded interests
/// are few, so Gather finds each interest's occurrences instead of
/// probing the interests once per (candidate, top term).
class TopTermIndex {
 public:
  TopTermIndex() = default;
  explicit TopTermIndex(const std::vector<MeasureCandidate>& pool);

  /// Number of candidates the index covers.
  size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Position of pool[i]'s first top term in Gather's output.
  size_t offset(size_t i) const { return offsets_[i]; }

  /// TopTermInterests of every candidate of the pool, concatenated in
  /// pool order (pool[i]'s start at offset(i)).
  std::vector<const double*> Gather(
      const std::unordered_map<rdf::TermId, double>& expanded_interests)
      const;

 private:
  /// (term, position in Gather's output) of every top term of the
  /// pool, sorted by term.
  std::vector<std::pair<rdf::TermId, uint32_t>> occurrences_;
  std::vector<size_t> offsets_;
};

/// Scores how related a candidate is to a human's interests: the
/// interest-weighted mass of the candidate's top affected terms. Built
/// once per (context, options) pair; Score() is then cheap per
/// (profile, candidate).
class RelatednessScorer {
 public:
  RelatednessScorer(const measures::EvolutionContext& ctx,
                    RelatednessOptions options);

  /// The profile's interests expanded through the class hierarchy
  /// (max-combined over paths, normalised so the strongest interest
  /// is 1).
  std::unordered_map<rdf::TermId, double> ExpandInterests(
      const profile::HumanProfile& profile) const;

  /// Relatedness of `candidate` to `profile` in [0,1]:
  ///   Σ_t w(t) · I*(t)  /  Σ_t w(t)
  /// over the candidate's top terms t, where w is the candidate's
  /// normalised score of t and I* the expanded interest; scaled by the
  /// profile's category affinity when enabled (clamped back to [0,1]).
  double Score(const profile::HumanProfile& profile,
               const MeasureCandidate& candidate) const;

  /// Score() with the per-run state hoisted out: `interests` is
  /// TopTermInterests(candidate, ExpandInterests(profile)) (or the
  /// candidate's slice of a TopTermIndex::Gather) and `weights` is
  /// ComputeTopTermWeights(candidate). Numerically identical to
  /// Score() — the serving loops depend on that.
  double ScoreExpanded(const double* const* interests,
                       const profile::HumanProfile& profile,
                       const MeasureCandidate& candidate,
                       const TopTermWeights& weights) const;

  const RelatednessOptions& options() const { return options_; }

 private:
  const measures::EvolutionContext& ctx_;
  RelatednessOptions options_;
};

}  // namespace evorec::recommend

#endif  // EVOREC_RECOMMEND_RELATEDNESS_H_

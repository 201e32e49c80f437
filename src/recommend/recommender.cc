#include "recommend/recommender.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "provenance/workflow.h"

namespace evorec::recommend {

Recommender::Recommender(const measures::MeasureRegistry& registry,
                         RecommenderOptions options)
    : registry_(registry), options_(std::move(options)) {}

void Recommender::AttachProvenance(provenance::ProvenanceStore* store) {
  provenance_ = store;
}

void Recommender::AttachAccessPolicy(const anonymity::AccessPolicy* policy) {
  policy_ = policy;
}

namespace {

// Thin wrapper so pipeline code reads identically with and without an
// attached provenance store. The run name and the stage notes are
// built only when a store is attached.
class StageTracer {
 public:
  StageTracer(provenance::ProvenanceStore* store, const char* run_kind,
              const std::string& run_id)
      : workflow_(store == nullptr
                      ? nullptr
                      : std::make_unique<provenance::Workflow>(
                            run_kind + run_id, "evorec", *store)) {}

  template <typename NoteFn>
  void Run(const char* stage, const char* entity, const NoteFn& note) {
    if (workflow_ == nullptr) return;
    std::vector<provenance::RecordId> inputs;
    if (!workflow_->stage_records().empty()) {
      inputs.push_back(workflow_->stage_records().back());
    }
    (void)workflow_->RunStage(stage, entity,
                              provenance::SourceKind::kInference, inputs,
                              note);
  }

  std::vector<provenance::RecordId> trail() const {
    return workflow_ == nullptr ? std::vector<provenance::RecordId>{}
                                : workflow_->stage_records();
  }

  std::optional<provenance::RecordId> last() const {
    if (workflow_ == nullptr || workflow_->stage_records().empty()) {
      return std::nullopt;
    }
    return workflow_->stage_records().back();
  }

 private:
  std::unique_ptr<provenance::Workflow> workflow_;
};

std::vector<rdf::TermId> DeliveredTerms(
    const std::vector<RecommendationItem>& items) {
  std::vector<rdf::TermId> terms;
  for (const RecommendationItem& item : items) {
    terms.insert(terms.end(), item.candidate.top_terms.begin(),
                 item.candidate.top_terms.end());
  }
  return terms;
}

// Adds the user-independent scoring and selection inputs to a state
// holding only its pool.
void DeriveSharedInputs(SharedRunState& state, DiversityKind diversity) {
  state.weights.reserve(state.pool.size());
  for (const MeasureCandidate& candidate : state.pool) {
    state.weights.push_back(ComputeTopTermWeights(candidate));
  }
  state.terms = TopTermIndex(state.pool);
  state.distances = DistanceMatrix::Build(state.pool, diversity);
}

bool HasSharedInputs(const SharedRunState& state) {
  const size_t n = state.pool.size();
  return state.weights.size() == n && state.terms.size() == n &&
         state.distances.size() == n;
}

}  // namespace

Result<SharedRunState> Recommender::PreparePool(
    const measures::EvolutionContext& ctx) const {
  auto pool = GenerateCandidates(registry_, ctx, options_.candidates);
  if (!pool.ok()) return pool.status();
  SharedRunState shared;
  shared.ctx = &ctx;
  shared.pool = std::move(pool).value();
  return shared;
}

Result<SharedRunState> Recommender::PrepareShared(
    const measures::EvolutionContext& ctx) const {
  auto shared = PreparePool(ctx);
  if (!shared.ok()) return shared;
  DeriveSharedInputs(*shared, options_.diversity);
  return shared;
}

Result<SharedRunState> Recommender::PrepareShared(
    const measures::EvolutionContext& ctx,
    const std::vector<measures::MeasureInfo>& infos,
    const std::vector<std::shared_ptr<const measures::MeasureReport>>&
        reports) const {
  auto pool =
      GenerateCandidatesFromReports(infos, reports, ctx, options_.candidates);
  if (!pool.ok()) return pool.status();
  SharedRunState shared;
  shared.ctx = &ctx;
  shared.pool = std::move(pool).value();
  DeriveSharedInputs(shared, options_.diversity);
  return shared;
}

Result<RecommendationList> Recommender::RecommendForUser(
    const measures::EvolutionContext& ctx,
    profile::HumanProfile& prof) const {
  // With a policy attached the per-user gating invalidates the shared
  // weights/index/distances, so don't build them for one run.
  auto shared = policy_ == nullptr ? PrepareShared(ctx) : PreparePool(ctx);
  if (!shared.ok()) return shared.status();
  return RecommendForUser(*shared, prof);
}

Result<RecommendationList> Recommender::RecommendForUser(
    const SharedRunState& shared, profile::HumanProfile& prof) const {
  return RecommendForUser(shared, prof, provenance_);
}

Result<RecommendationList> Recommender::RecommendForUser(
    const SharedRunState& shared, profile::HumanProfile& prof,
    provenance::ProvenanceStore* trace) const {
  const measures::EvolutionContext& ctx = *shared.ctx;
  StageTracer tracer(trace, "recommend_user/", prof.id());
  tracer.Run("context", "evolution_context", [&] {
    return "delta size " + std::to_string(ctx.low_level_delta().size());
  });
  tracer.Run("candidates", "candidate_pool", [&] {
    return std::to_string(shared.pool.size()) + " candidates";
  });

  // Null policy: the gate is an identity, so score straight off the
  // shared pool and its user-independent inputs without copying it.
  // With a policy attached, gating redacts top terms per user, so the
  // run derives its own inputs from its gated copy (as it does from a
  // copy of a pool-only state).
  GateOutcome gated;
  SharedRunState derived;
  const SharedRunState* run = &shared;
  if (policy_ != nullptr || !HasSharedInputs(shared)) {
    derived.ctx = shared.ctx;
    if (policy_ != nullptr) {
      gated = ApplyAccessGate(policy_, prof.id(), shared.pool,
                              options_.candidates.top_k);
      derived.pool = std::move(gated.candidates);
    } else {
      derived.pool = shared.pool;
    }
    DeriveSharedInputs(derived, options_.diversity);
    run = &derived;
  }
  const std::vector<MeasureCandidate>& candidates = run->pool;
  tracer.Run("anonymity_gate", "gated_pool", [&] {
    return std::to_string(candidates.size()) + " visible, " +
           std::to_string(gated.dropped_candidates) + " dropped";
  });

  const RelatednessScorer scorer(ctx, options_.relatedness);
  const std::unordered_map<rdf::TermId, double> expanded =
      scorer.ExpandInterests(prof);
  const std::vector<const double*> interests = run->terms.Gather(expanded);
  std::vector<double> relatedness(candidates.size(), 0.0);
  std::vector<double> novelty(candidates.size(), 0.0);
  std::vector<double> relevance(candidates.size(), 0.0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    relatedness[i] =
        scorer.ScoreExpanded(interests.data() + run->terms.offset(i), prof,
                             candidates[i], run->weights[i]);
    novelty[i] = NoveltyScore(prof, candidates[i]);
    relevance[i] = (1.0 - options_.novelty_weight) * relatedness[i] +
                   options_.novelty_weight * novelty[i];
  }
  tracer.Run("scoring", "scored_pool", [&] {
    return "relatedness+novelty over " + std::to_string(candidates.size()) +
           " candidates";
  });

  std::vector<size_t> selection =
      SelectMmr(candidates, relevance, options_.package_size,
                options_.mmr_lambda, options_.diversity, &run->distances);
  selection = ImproveBySwaps(candidates, relevance, std::move(selection),
                             options_.mmr_lambda, options_.diversity,
                             /*max_rounds=*/4, &run->distances);
  tracer.Run("selection", "package", [&] {
    return std::to_string(selection.size()) + " measures selected";
  });

  RecommendationList list;
  list.candidate_pool_size = candidates.size();
  list.redacted_terms = gated.redacted_terms;
  list.dropped_candidates = gated.dropped_candidates;
  list.items.reserve(selection.size());
  const std::optional<provenance::RecordId> last = tracer.last();
  for (size_t index : selection) {
    RecommendationItem item;
    item.candidate = candidates[index];
    item.relatedness = relatedness[index];
    item.novelty = novelty[index];
    item.explanation = BuildExplanation(
        item.candidate, item.relatedness, item.novelty,
        ctx.before().dictionary(), interests.data() + run->terms.offset(index));
    if (last.has_value()) {
      item.explanation.has_provenance = true;
      item.explanation.provenance_record = *last;
    }
    list.items.push_back(std::move(item));
  }
  list.set_diversity =
      SetDiversity(candidates, selection, options_.diversity, &run->distances);
  list.category_coverage = CategoryCoverage(candidates, selection);
  list.provenance_trail = tracer.trail();

  if (options_.record_seen) {
    prof.RecordSeen(DeliveredTerms(list.items));
  }
  return list;
}

Result<RecommendationList> Recommender::RecommendForGroup(
    const measures::EvolutionContext& ctx, profile::Group& group) const {
  if (group.empty()) {
    return InvalidArgumentError("cannot recommend to an empty group");
  }
  // The group pipeline scores through its own utility matrix and never
  // reads the shared normalisation/distances — skip building them.
  auto shared = PreparePool(ctx);
  if (!shared.ok()) return shared.status();
  return RecommendForGroup(*shared, group);
}

Result<RecommendationList> Recommender::RecommendForGroup(
    const SharedRunState& shared, profile::Group& group) const {
  return RecommendForGroup(shared, group, provenance_);
}

Result<RecommendationList> Recommender::RecommendForGroup(
    const SharedRunState& shared, profile::Group& group,
    provenance::ProvenanceStore* trace) const {
  if (group.empty()) {
    return InvalidArgumentError("cannot recommend to an empty group");
  }
  const measures::EvolutionContext& ctx = *shared.ctx;
  StageTracer tracer(trace, "recommend_group/", group.id());
  tracer.Run("context", "evolution_context", [&] {
    return "delta size " + std::to_string(ctx.low_level_delta().size());
  });
  tracer.Run("candidates", "candidate_pool", [&] {
    return std::to_string(shared.pool.size()) + " candidates";
  });

  // The gate applies the *most restrictive* view: a term is visible to
  // the group only if every member may see it. Implemented by
  // filtering per member and keeping the intersection via sequential
  // application.
  std::vector<MeasureCandidate> candidates = shared.pool;
  size_t redacted_total = 0;
  size_t dropped_total = 0;
  for (const profile::HumanProfile& member : group.members()) {
    GateOutcome gated = ApplyAccessGate(policy_, member.id(),
                                        std::move(candidates),
                                        options_.candidates.top_k);
    candidates = std::move(gated.candidates);
    redacted_total += gated.redacted_terms;
    dropped_total += gated.dropped_candidates;
  }
  tracer.Run("anonymity_gate", "gated_pool", [&] {
    return std::to_string(candidates.size()) + " visible";
  });

  const RelatednessScorer scorer(ctx, options_.relatedness);
  GroupSelectOptions group_options = options_.group;
  group_options.package_size = options_.package_size;
  GroupSelection selected =
      SelectForGroup(candidates, group, scorer, group_options);
  tracer.Run("selection", "package", [&] {
    return std::to_string(selected.selection.size()) +
           " measures selected (fairness_aware=" +
           (group_options.fairness_aware ? "yes" : "no") + ")";
  });

  RecommendationList list;
  list.candidate_pool_size = candidates.size();
  list.redacted_terms = redacted_total;
  list.dropped_candidates = dropped_total;
  list.fairness = selected.fairness;
  list.set_diversity = selected.set_diversity;
  list.category_coverage = CategoryCoverage(candidates, selected.selection);
  list.items.reserve(selected.selection.size());
  // Items are explained from the first member's point of view; their
  // relatedness is utilities[0][index], the same ScoreExpanded value.
  const profile::HumanProfile& lead = group.members()[0];
  const std::unordered_map<rdf::TermId, double> lead_interests =
      scorer.ExpandInterests(lead);
  const std::optional<provenance::RecordId> last = tracer.last();
  for (size_t index : selected.selection) {
    RecommendationItem item;
    item.candidate = candidates[index];
    // Item-level relatedness for a group is the mean member utility.
    double mean_utility = 0.0;
    for (size_t m = 0; m < group.size(); ++m) {
      mean_utility += selected.utilities[m][index];
    }
    item.relatedness = mean_utility / static_cast<double>(group.size());
    item.novelty = 0.0;
    item.explanation = BuildExplanation(
        item.candidate, selected.utilities[0][index],
        NoveltyScore(lead, item.candidate),
        ctx.before().dictionary(),
        TopTermInterests(item.candidate, lead_interests).data());
    if (last.has_value()) {
      item.explanation.has_provenance = true;
      item.explanation.provenance_record = *last;
    }
    list.items.push_back(std::move(item));
  }
  list.provenance_trail = tracer.trail();

  if (options_.record_seen) {
    group.RecordSeen(DeliveredTerms(list.items));
  }
  return list;
}

}  // namespace evorec::recommend

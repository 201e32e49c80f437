#include "engine/recommendation_service.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

namespace evorec::engine {

namespace {

Env* ResolveEnv(const ServiceOptions& options) {
  return options.env != nullptr ? options.env : Env::Default();
}

}  // namespace

std::string ServiceHealth::ToString() const {
  std::string out = "service ";
  out += state == HealthState::kHealthy ? "HEALTHY" : "DEGRADED";
  out += "\n  commits: failed=" + std::to_string(failed_commits) +
         " recoveries=" + std::to_string(recoveries);
  if (!last_error.empty()) out += " last_error=\"" + last_error + "\"";
  out += "\n  rejected: shed=" + std::to_string(shed_requests) +
         " deadline_exceeded=" + std::to_string(deadline_exceeded) +
         " breaker_fast_fails=" + std::to_string(breaker_fast_fails);
  out += "\n  served stale/cheap: degraded=" +
         std::to_string(degraded_serves) +
         " brownout=" + std::to_string(brownout_serves) +
         " (brownout " + (brownout_active ? "ACTIVE" : "inactive") + ")";
  return out;
}

RecommendationService::RecommendationService(
    const measures::MeasureRegistry& registry, ServiceOptions options)
    : options_(std::move(options)),
      env_(ResolveEnv(options_)),
      engine_(registry, options_.engine),
      recommender_(registry, options_.recommender),
      admission_(env_, options_.overload.admission),
      breaker_(env_, options_.overload.breaker),
      brownout_(env_, options_.overload.brownout) {}

void RecommendationService::AttachProvenance(
    provenance::ProvenanceStore* store) {
  provenance_ = store;
  recommender_.AttachProvenance(store);
}

void RecommendationService::AttachAccessPolicy(
    const anonymity::AccessPolicy* policy) {
  recommender_.AttachAccessPolicy(policy);
}

Result<std::shared_ptr<const SharedEvaluation>> RecommendationService::Warm(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const measures::ContextOptions& context,
    std::shared_ptr<const recommend::SharedRunState>* state) {
  auto evaluation = engine_.Evaluate(view, v1, v2, context);
  if (!evaluation.ok()) return evaluation.status();
  auto shared = (*evaluation)->SharedStateFor(recommender_);
  if (!shared.ok()) return shared.status();
  *state = std::move(shared).value();
  return evaluation;
}

Result<std::shared_ptr<const SharedEvaluation>>
RecommendationService::WarmOrFallback(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const measures::ContextOptions& context,
    std::shared_ptr<const recommend::SharedRunState>* state,
    bool* degraded) {
  *degraded = health_state() == HealthState::kDegraded;
  auto evaluation = Warm(view, v1, v2, context, state);
  if (evaluation.ok() || !*degraded) return evaluation;
  // Degraded and unable to serve fresh: answer from the pinned
  // last-good evaluation rather than going dark. The caller sees a
  // consistent list for the last successfully committed transition,
  // flagged so nobody mistakes it for the requested pair.
  auto last_good = engine_.LastGoodRefresh();
  if (!last_good.has_value()) return evaluation;
  auto shared = last_good->evaluation->SharedStateFor(recommender_);
  if (!shared.ok()) return evaluation;  // original error is the story
  *state = std::move(shared).value();
  return Result<std::shared_ptr<const SharedEvaluation>>(
      last_good->evaluation);
}

Result<AdmissionController::Ticket> RecommendationService::AdmitOrShed(
    AdmissionLane lane, const RequestBudget& budget, uint64_t n) {
  if (!options_.overload.admission_enabled) {
    return AdmissionController::Ticket();
  }
  auto ticket = admission_.Admit(lane, budget, n);
  if (!ticket.ok()) {
    // Every shed feeds the brown-out pressure signal: sustained
    // shedding is the cue to drop to the cheaper serving mode.
    brownout_.OnShed();
    std::lock_guard<std::mutex> lock(health_mu_);
    health_.shed_requests += n;
  }
  return ticket;
}

Deadline RecommendationService::EffectiveDeadline(
    const RequestBudget& budget) const {
  if (!budget.deadline.is_infinite()) return budget.deadline;
  if (options_.overload.default_deadline_us == 0) return Deadline::Infinite();
  return Deadline::After(env_, options_.overload.default_deadline_us);
}

Status RecommendationService::CheckDeadline(const Deadline& deadline,
                                            std::string_view stage,
                                            uint64_t n) {
  Status status = deadline.Check(stage);
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_.deadline_exceeded += n;
  }
  return status;
}

const measures::ContextOptions& RecommendationService::PickContext(
    bool* brownout) {
  *brownout = brownout_.Active();
  return *brownout ? options_.overload.brownout_context : options_.context;
}

void RecommendationService::MarkCommitFailed(const Status& status) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_.state = HealthState::kDegraded;
  ++health_.failed_commits;
  health_.last_error = status.message();
}

void RecommendationService::MarkCommitSucceeded() {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (health_.state == HealthState::kDegraded) {
    ++health_.recoveries;
  }
  health_.state = HealthState::kHealthy;
}

void RecommendationService::Deliver(
    std::span<recommend::RecommendationList> lists, const Admitted& admitted,
    uint64_t start) {
  for (recommend::RecommendationList& list : lists) {
    list.degraded = admitted.degraded;
    list.brownout = admitted.brownout;
  }
  if (admitted.degraded || admitted.brownout) {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (admitted.degraded) health_.degraded_serves += lists.size();
    if (admitted.brownout) health_.brownout_serves += lists.size();
  }
  // Every request of a batch completed when the batch did: n samples
  // of the batch's wall time is each request's observed latency.
  read_latency_.RecordN(env_->NowMicros() - start, lists.size());
}

ServiceHealth RecommendationService::health() const {
  ServiceHealth out;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    out = health_;
  }
  out.brownout_active = brownout_.stats().active;
  return out;
}

Status RecommendationService::WarmStart(const version::KbView& view,
                                        version::VersionId v1,
                                        version::VersionId v2) {
  std::shared_ptr<const recommend::SharedRunState> state;
  auto evaluation = Warm(view, v1, v2, options_.context, &state);
  if (!evaluation.ok()) return evaluation.status();
  // Warm() covers the context and the candidate pool; the report memo
  // fills here so even measures outside the candidate pipeline are hot.
  auto reports = (*evaluation)->AllReports();
  return reports.ok() ? OkStatus() : reports.status();
}

Result<version::VersionId> RecommendationService::Commit(
    version::KbView& view, version::ChangeSet changes, std::string author,
    std::string message, uint64_t timestamp, const RequestBudget& budget) {
  const uint64_t start = env_->NowMicros();
  const bool breaker_on = options_.overload.breaker_enabled;
  if (breaker_on) {
    Status allowed = breaker_.Allow();
    if (!allowed.ok()) {
      // Fast-fail: storage was never touched, nothing *new* failed —
      // the service keeps whatever health state the real failures
      // already put it in.
      std::lock_guard<std::mutex> lock(health_mu_);
      ++health_.breaker_fast_fails;
      return allowed;
    }
  }
  // A pre-commit bail (shed, expired deadline) is not device sickness:
  // RecordFailure classifies by IsTransient and merely releases a
  // half-open probe for these codes.
  auto ticket = AdmitOrShed(AdmissionLane::kPriority, budget, 1);
  if (!ticket.ok()) {
    if (breaker_on) breaker_.RecordFailure(ticket.status());
    return ticket.status();
  }
  const Deadline deadline = EffectiveDeadline(budget);
  Status alive = CheckDeadline(deadline, "commit", 1);
  if (!alive.ok()) {
    if (breaker_on) breaker_.RecordFailure(alive);
    return alive;
  }
  auto refreshed =
      engine_.CommitAndRefresh(view, std::move(changes), std::move(author),
                               std::move(message), timestamp, options_.context);
  if (!refreshed.ok()) {
    // The commit is not in the history (the WAL is write-ahead: a
    // failed append mutates nothing). Flip to DEGRADED — reads keep
    // flowing from the engine's pinned last-good state, flagged.
    if (breaker_on) breaker_.RecordFailure(refreshed.status());
    MarkCommitFailed(refreshed.status());
    return refreshed.status();
  }
  // The engine refresh covers the context; warm the derived layers too
  // so the next request over the head pair is a pure hit.
  auto shared = refreshed->evaluation->SharedStateFor(recommender_);
  if (!shared.ok()) {
    if (breaker_on) breaker_.RecordFailure(shared.status());
    MarkCommitFailed(shared.status());
    return shared.status();
  }
  auto reports = refreshed->evaluation->AllReports();
  if (!reports.ok()) {
    if (breaker_on) breaker_.RecordFailure(reports.status());
    MarkCommitFailed(reports.status());
    return reports.status();
  }
  if (breaker_on) breaker_.RecordSuccess();
  MarkCommitSucceeded();
  commit_latency_.Record(env_->NowMicros() - start);
  return refreshed->version;
}

Result<RecommendationService::Admitted> RecommendationService::BeginRead(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    AdmissionLane lane, uint64_t n, const RequestBudget& budget) {
  Admitted admitted;
  // A batch of n is n logical requests to the rate bucket but one
  // in-flight unit of work.
  auto ticket = AdmitOrShed(lane, budget, n);
  if (!ticket.ok()) return ticket.status();
  admitted.ticket = std::move(ticket).value();
  admitted.deadline = EffectiveDeadline(budget);
  Status alive = CheckDeadline(admitted.deadline, "context build", n);
  if (!alive.ok()) return alive;
  const measures::ContextOptions& context = PickContext(&admitted.brownout);
  auto evaluation = WarmOrFallback(view, v1, v2, context, &admitted.state,
                                   &admitted.degraded);
  if (!evaluation.ok()) return evaluation.status();
  return admitted;
}

Result<recommend::RecommendationList> RecommendationService::Serve(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    AdmissionLane lane, const RequestBudget& budget, const ServeFn& serve) {
  const uint64_t start = env_->NowMicros();
  auto admitted = BeginRead(view, v1, v2, lane, 1, budget);
  if (!admitted.ok()) return admitted.status();
  Status alive = CheckDeadline(admitted->deadline, "scoring", 1);
  if (!alive.ok()) return alive;
  auto list = serve(*admitted->state, 0, provenance_);
  if (list.ok()) Deliver(std::span(&*list, 1), *admitted, start);
  return list;
}

Result<recommend::RecommendationList> RecommendationService::Recommend(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    profile::HumanProfile& prof, const RequestBudget& budget) {
  return Serve(view, v1, v2, AdmissionLane::kBulk, budget,
               [&](const recommend::SharedRunState& state, size_t,
                   provenance::ProvenanceStore* trace) {
                 return recommender_.RecommendForUser(state, prof, trace);
               });
}

Result<recommend::RecommendationList> RecommendationService::RecommendGroup(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    profile::Group& group, const RequestBudget& budget) {
  // Group serves ride the priority lane: they are rarer and more
  // expensive per call, so a bulk-read flood must not starve them.
  return Serve(view, v1, v2, AdmissionLane::kPriority, budget,
               [&](const recommend::SharedRunState& state, size_t,
                   provenance::ProvenanceStore* trace) {
                 return recommender_.RecommendForGroup(state, group, trace);
               });
}

std::vector<provenance::RecordId> RecommendationService::MergeScratchTraces(
    std::vector<provenance::ProvenanceStore>& scratch) {
  std::vector<provenance::RecordId> bases(scratch.size(), 0);
  for (size_t i = 0; i < scratch.size(); ++i) {
    const provenance::RecordId base =
        static_cast<provenance::RecordId>(provenance_->size());
    bases[i] = base;
    for (const provenance::ProvRecord& record : scratch[i].records()) {
      provenance::ProvRecord rebased = record;
      // Scratch ids are dense from 0, so every id a sequential run
      // would have assigned is scratch id + base — inputs rebase to
      // records already spliced, keeping Append's validation happy.
      for (provenance::RecordId& input : rebased.inputs) input += base;
      (void)provenance_->Append(std::move(rebased));
    }
  }
  return bases;
}

namespace {

// Rebases the record ids a worker wrote scratch-relative into the
// merged store's id space.
void RebaseTrail(recommend::RecommendationList& list,
                 provenance::RecordId base) {
  for (provenance::RecordId& id : list.provenance_trail) id += base;
  for (recommend::RecommendationItem& item : list.items) {
    if (item.explanation.has_provenance) {
      item.explanation.provenance_record += base;
    }
  }
}

// Rejects null and repeated batch entries: two workers delivering to
// one profile (or group) would race on its seen-history.
template <typename T>
Status CheckDistinct(const std::vector<T*>& items, const std::string& what) {
  if (std::find(items.begin(), items.end(), nullptr) != items.end()) {
    return InvalidArgumentError(what + ": null entry");
  }
  std::vector<T*> sorted = items;
  std::sort(sorted.begin(), sorted.end(), std::less<>());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return InvalidArgumentError(what + ": repeated entry (batch entries must "
                                "be distinct objects)");
  }
  return OkStatus();
}

}  // namespace

Result<std::vector<recommend::RecommendationList>>
RecommendationService::ServeBatch(const version::KbView& view,
                                  version::VersionId v1, version::VersionId v2,
                                  AdmissionLane lane, size_t n,
                                  const RequestBudget& budget,
                                  const ServeFn& serve) {
  const uint64_t start = env_->NowMicros();
  auto admitted = BeginRead(view, v1, v2, lane, n, budget);
  if (!admitted.ok()) return admitted.status();
  // Parallel with an audit trail: every worker traces into a private
  // scratch store, then the scratches splice into the attached store
  // in request order — the same records, ids and order a sequential
  // batch would have produced. A sequential batch traces in place.
  const bool parallel = options_.parallel_batches;
  std::vector<provenance::ProvenanceStore> scratch(
      parallel && provenance_ != nullptr ? n : 0);
  // Every slot is filled (parallel runs don't short-circuit); the
  // first error wins below.
  std::vector<std::optional<Result<recommend::RecommendationList>>> slots(n);
  const auto serve_one = [&](size_t i) {
    Status alive = CheckDeadline(admitted->deadline, "batch scoring", 1);
    if (!alive.ok()) {
      slots[i] = alive;
      return;
    }
    slots[i] = serve(*admitted->state, i,
                     scratch.empty() ? provenance_ : &scratch[i]);
  };
  if (parallel) {
    engine_.pool().ParallelFor(n, serve_one);
  } else {
    for (size_t i = 0; i < n; ++i) serve_one(i);
  }
  // Merge before error handling: a sequential batch records every
  // request's trail even when one of them fails.
  std::vector<provenance::RecordId> bases;
  if (!scratch.empty()) bases = MergeScratchTraces(scratch);
  std::vector<recommend::RecommendationList> lists;
  lists.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Result<recommend::RecommendationList>& slot = *slots[i];
    if (!slot.ok()) return slot.status();
    if (!bases.empty()) RebaseTrail(*slot, bases[i]);
    lists.push_back(std::move(slot).value());
  }
  Deliver(lists, *admitted, start);
  return lists;
}

Result<std::vector<recommend::RecommendationList>>
RecommendationService::RecommendBatch(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const std::vector<profile::HumanProfile*>& profiles,
    const RequestBudget& budget) {
  EVOREC_RETURN_IF_ERROR(CheckDistinct(profiles, "RecommendBatch"));
  return ServeBatch(view, v1, v2, AdmissionLane::kBulk, profiles.size(),
                    budget,
                    [&](const recommend::SharedRunState& state, size_t i,
                        provenance::ProvenanceStore* trace) {
                      return recommender_.RecommendForUser(
                          state, *profiles[i], trace);
                    });
}

Result<std::vector<recommend::RecommendationList>>
RecommendationService::RecommendGroupBatch(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const std::vector<profile::Group*>& groups, const RequestBudget& budget) {
  EVOREC_RETURN_IF_ERROR(CheckDistinct(groups, "RecommendGroupBatch"));
  return ServeBatch(view, v1, v2, AdmissionLane::kPriority, groups.size(),
                    budget,
                    [&](const recommend::SharedRunState& state, size_t i,
                        provenance::ProvenanceStore* trace) {
                      return recommender_.RecommendForGroup(state, *groups[i],
                                                            trace);
                    });
}

}  // namespace evorec::engine

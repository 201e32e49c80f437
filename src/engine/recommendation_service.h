#ifndef EVOREC_ENGINE_RECOMMENDATION_SERVICE_H_
#define EVOREC_ENGINE_RECOMMENDATION_SERVICE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "anonymity/access_policy.h"
#include "common/deadline.h"
#include "common/env.h"
#include "common/percentile.h"
#include "common/result.h"
#include "engine/admission.h"
#include "engine/evaluation_engine.h"
#include "measures/measure_context.h"
#include "measures/registry.h"
#include "profile/group.h"
#include "profile/profile.h"
#include "provenance/store.h"
#include "recommend/recommender.h"
#include "version/kb_view.h"

namespace evorec::engine {

/// The service's overload-robustness layer (engine/admission.h has the
/// primitives, docs/ARCHITECTURE.md the state diagrams). Everything
/// defaults off: an unconfigured service behaves exactly as before.
struct OverloadOptions {
  /// Run every request through the AdmissionController; shed requests
  /// return kResourceExhausted before any expensive work. Commits and
  /// group requests enter on the priority lane.
  bool admission_enabled = false;
  AdmissionOptions admission;
  /// Wrap Commit in the CircuitBreaker: after
  /// breaker.failure_threshold consecutive transient commit failures,
  /// commits fast-fail (kUnavailable) for breaker.cooldown_us instead
  /// of hammering a sick device; a half-open probe closes it again.
  /// Serving stays in the existing DEGRADED machinery throughout.
  bool breaker_enabled = false;
  BreakerOptions breaker;
  /// Hysteretic brown-out: under sustained shed pressure, serve
  /// brownout_context instead of ServiceOptions::context, flagged
  /// RecommendationList::brownout (brownout.enabled arms it).
  BrownoutOptions brownout;
  /// The declared cheaper mode served while browned out. Defaults to
  /// pivot-sampled betweenness — the knob ContextOptions already
  /// exposes with the biggest cost lever.
  measures::ContextOptions brownout_context{
      .betweenness_mode = measures::BetweennessMode::kSampled,
      .betweenness_pivots = 16};
  /// Deadline applied to requests whose RequestBudget carries none;
  /// 0 = infinite (no implicit deadline).
  uint64_t default_deadline_us = 0;
};

/// Service configuration: the recommender pipeline, the engine's
/// cache/threading, and how contexts are built.
struct ServiceOptions {
  recommend::RecommenderOptions recommender;
  EngineOptions engine;
  measures::ContextOptions context;
  /// Run the per-user stages of a batch on the engine's thread pool.
  /// Works with a provenance store attached too: each worker traces
  /// into a private scratch store and the service splices the
  /// scratches into the attached store in request order, so the audit
  /// trail is byte-identical to a sequential run.
  bool parallel_batches = true;
  /// The clock/environment behind the latency recorders, deadlines,
  /// admission control and the commit circuit breaker. nullptr means
  /// Env::Default(); tests inject a FaultInjectionEnv so time is
  /// scripted and no test ever sleeps. Must outlive the service.
  Env* env = nullptr;
  OverloadOptions overload;
};

/// The service's explicit health state machine (docs/ARCHITECTURE.md
/// has the diagram):
///
///   kHealthy --(Commit fails)--> kDegraded --(Commit succeeds)--> kHealthy
///
/// While DEGRADED the service refuses to go dark: reads that cannot be
/// served fresh fall back to the engine's pinned last-good evaluation,
/// and every result carries RecommendationList::degraded = true so
/// callers know it may be stale (consistent, but possibly reflecting
/// the last committed version rather than the requested one).
enum class HealthState {
  kHealthy,
  /// A commit failed after reaching the durable layer's retry budget;
  /// serving continues from the last-good state until a commit
  /// succeeds.
  kDegraded,
};

/// Health counters and the evidence behind the current state. The
/// rejection counters keep the failure taxonomy honest: a *shed*
/// request was refused before any work (admission), a
/// *deadline-exceeded* one was abandoned at a stage boundary, a
/// *breaker fast-fail* is a commit refused while the circuit breaker
/// is open — none of them are degraded serves (those are successful
/// answers from stale state).
struct ServiceHealth {
  HealthState state = HealthState::kHealthy;
  uint64_t failed_commits = 0;
  /// Results served with the degraded flag set.
  uint64_t degraded_serves = 0;
  /// kDegraded -> kHealthy transitions (a commit succeeded again).
  uint64_t recoveries = 0;
  /// Requests refused by admission control (kResourceExhausted),
  /// summed over causes — AdmissionStats has the per-cause split.
  uint64_t shed_requests = 0;
  /// Requests abandoned past their deadline (kDeadlineExceeded), at
  /// whichever stage boundary caught it.
  uint64_t deadline_exceeded = 0;
  /// Commits fast-failed by the open circuit breaker — the device was
  /// never touched, nothing new failed.
  uint64_t breaker_fast_fails = 0;
  /// Results served in the brown-out cheaper mode (flagged
  /// RecommendationList::brownout).
  uint64_t brownout_serves = 0;
  /// Whether brown-out is active right now.
  bool brownout_active = false;
  /// Message of the failure that caused the current (or most recent)
  /// degradation.
  std::string last_error;

  /// Multi-line operator summary (health state, rejection taxonomy,
  /// brown-out state) — what the health_monitor example prints.
  std::string ToString() const;
};

/// The serving loop of the ROADMAP's many-users vision: N users (or
/// groups) asking about one version pair share one cached
/// EvolutionContext, one memoized set of measure reports, and one
/// candidate pool; only gating, scoring, selection and explanation run
/// per user. Batches are byte-identical to sequential per-user
/// Recommend calls with the same inputs.
///
/// Thread-compatible: one service may serve concurrent callers, but
/// each HumanProfile/Group may only appear in one in-flight request at
/// a time (delivery mutates the profile's seen-history).
class RecommendationService {
 public:
  /// `registry` must outlive the service.
  explicit RecommendationService(const measures::MeasureRegistry& registry,
                                 ServiceOptions options = {});

  /// Attaches a provenance store recording every run's stages. Batches
  /// stay parallel while attached: workers trace into scratch stores
  /// that merge back in deterministic request order (see
  /// ServiceOptions::parallel_batches). Pass nullptr to detach.
  void AttachProvenance(provenance::ProvenanceStore* store);

  /// Attaches strict access rules applied before scoring. Pass nullptr
  /// to detach.
  void AttachAccessPolicy(const anonymity::AccessPolicy* policy);

  /// Every entry point below takes the KB as a version::KbView — a
  /// VersionedKnowledgeBase or a ShardedKnowledgeBase. The view guards
  /// its own state, so reads proceed at full fan-out while a
  /// concurrent Commit lands.

  /// Recommends to one human about versions (v1, v2) of `view`,
  /// reusing the cached shared evaluation when warm.
  Result<recommend::RecommendationList> Recommend(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, profile::HumanProfile& prof,
      const RequestBudget& budget = {});

  /// Recommends one shared package to a group.
  Result<recommend::RecommendationList> RecommendGroup(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, profile::Group& group,
      const RequestBudget& budget = {});

  /// Serves many users against one version pair: the shared evaluation
  /// is built (or fetched) once, then the per-user stages run — in
  /// parallel on the engine's pool unless parallel_batches is off.
  /// results[i] corresponds to profiles[i]. Profiles must be distinct
  /// objects: a null or repeated entry fails the batch with
  /// kInvalidArgument before admission. Fails on the first per-user
  /// failure.
  Result<std::vector<recommend::RecommendationList>> RecommendBatch(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2,
      const std::vector<profile::HumanProfile*>& profiles,
      const RequestBudget& budget = {});

  /// Group flavour of RecommendBatch (groups must be distinct objects).
  Result<std::vector<recommend::RecommendationList>> RecommendGroupBatch(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, const std::vector<profile::Group*>& groups,
      const RequestBudget& budget = {});

  /// Warm-start: pre-builds the full shared evaluation of (v1, v2) —
  /// context, every registered measure report, the recommender's
  /// shared run state — without serving anyone, so the first real
  /// request is a pure cache hit. This is the restart story's second
  /// half: version::RecoverFromDisk restores a KB with its original
  /// content fingerprints, so the keys warmed here are the exact keys
  /// the pre-restart process was serving under.
  Status WarmStart(const version::KbView& view, version::VersionId v1,
                   version::VersionId v2);

  /// The serving loop's write path: commits `changes` to `view` and
  /// incrementally refreshes the engine so the head transition is warm
  /// — context, every measure report, and the recommender's shared run
  /// state — before this returns. Requests racing the refresh simply
  /// coalesce with it. Safe to call while other threads serve through
  /// this service (one committer at a time); returns the new head id.
  ///
  /// Health coupling: a failure here (the WAL append exhausted its
  /// retries, the refresh broke, …) flips the service to
  /// HealthState::kDegraded — the commit is not in the history, the
  /// engine's pinned last-good state keeps serving — and the next
  /// successful Commit flips it back to kHealthy.
  Result<version::VersionId> Commit(version::KbView& view,
                                    version::ChangeSet changes,
                                    std::string author, std::string message,
                                    uint64_t timestamp = 0,
                                    const RequestBudget& budget = {});

  /// Snapshot of the current health state and counters. Thread-safe.
  ServiceHealth health() const;
  HealthState health_state() const { return health().state; }

  /// Per-request latency recorders on the serving path (E16). Every
  /// successful read entry point records one sample per served request
  /// — a batch of n profiles records n samples of the batch's wall
  /// time, because that is when each of its requests completed — and
  /// every successful Commit records one sample. Recording is a
  /// relaxed atomic increment, safe under full concurrent fan-out;
  /// failed requests are not recorded (they are counted by health()).
  const LatencyRecorder& read_latency() const { return read_latency_; }
  const LatencyRecorder& commit_latency() const { return commit_latency_; }
  void ResetLatency() {
    read_latency_.Reset();
    commit_latency_.Reset();
  }

  EvaluationEngine& engine() { return engine_; }
  const recommend::Recommender& recommender() const { return recommender_; }
  EngineStats engine_stats() const { return engine_.stats(); }
  const ServiceOptions& options() const { return options_; }

  /// Overload-control observability (zeros while the corresponding
  /// feature is disabled). Thread-safe.
  AdmissionStats admission_stats() const { return admission_.stats(); }
  BreakerStats breaker_stats() const { return breaker_.stats(); }
  BrownoutStats brownout_stats() const { return brownout_.stats(); }

  /// The clock everything here runs on (ServiceOptions::env, or
  /// Env::Default()).
  Env* env() const { return env_; }

 private:
  /// One admitted read: the admission ticket (holding the in-flight
  /// slot until destroyed), the effective deadline, and the shared run
  /// state to serve from, with how it was obtained.
  struct Admitted {
    AdmissionController::Ticket ticket;
    Deadline deadline;
    std::shared_ptr<const recommend::SharedRunState> state;
    bool degraded = false;
    bool brownout = false;
  };

  /// Serves request `i` of a read from the shared run state, tracing
  /// into `trace` (nullptr runs untraced).
  using ServeFn = std::function<Result<recommend::RecommendationList>(
      const recommend::SharedRunState& state, size_t i,
      provenance::ProvenanceStore* trace)>;

  /// The prelude of every read: admission of `n` requests on `lane`,
  /// the pre-build deadline check (an already-expired read does zero
  /// context builds), and the shared run state — brown-out context
  /// picked, degraded fallback applied.
  Result<Admitted> BeginRead(const version::KbView& view,
                             version::VersionId v1, version::VersionId v2,
                             AdmissionLane lane, uint64_t n,
                             const RequestBudget& budget);

  /// The body of Recommend and RecommendGroup.
  Result<recommend::RecommendationList> Serve(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, AdmissionLane lane, const RequestBudget& budget,
      const ServeFn& serve);

  /// The body of RecommendBatch and RecommendGroupBatch: `n` requests
  /// over one shared run state — on the engine's pool when
  /// parallel_batches is set (each worker tracing into a scratch store
  /// that MergeScratchTraces splices back), sequentially tracing in
  /// place otherwise.
  Result<std::vector<recommend::RecommendationList>> ServeBatch(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, AdmissionLane lane, size_t n,
      const RequestBudget& budget, const ServeFn& serve);

  /// Flags `lists` degraded / brown-out as `admitted` was served,
  /// counts them in health(), and records their latency since `start`.
  void Deliver(std::span<recommend::RecommendationList> lists,
               const Admitted& admitted, uint64_t start);

  Result<std::shared_ptr<const SharedEvaluation>> Warm(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, const measures::ContextOptions& context,
      std::shared_ptr<const recommend::SharedRunState>* state);

  /// Warm(), plus the degraded-mode fallback: when Warm fails *and*
  /// the service is already degraded, serve the engine's pinned
  /// last-good evaluation instead of going dark. Healthy-state errors
  /// (e.g. a genuinely invalid version id) propagate unchanged — the
  /// fallback only masks failures the degradation already explains.
  /// `degraded` reports whether results must carry the flag.
  Result<std::shared_ptr<const SharedEvaluation>> WarmOrFallback(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, const measures::ContextOptions& context,
      std::shared_ptr<const recommend::SharedRunState>* state,
      bool* degraded);

  /// Admission front door shared by every entry point: no-op Ticket
  /// when admission is disabled; on shed, counts `n` shed requests,
  /// feeds the brown-out pressure signal, and returns the
  /// kResourceExhausted error.
  Result<AdmissionController::Ticket> AdmitOrShed(AdmissionLane lane,
                                                  const RequestBudget& budget,
                                                  uint64_t n);

  /// Resolves the effective deadline: the budget's own, or a fresh one
  /// from OverloadOptions::default_deadline_us when the budget carries
  /// none.
  Deadline EffectiveDeadline(const RequestBudget& budget) const;

  /// Deadline check at a stage boundary; counts `n` abandoned requests
  /// in health() when expired.
  Status CheckDeadline(const Deadline& deadline, std::string_view stage,
                       uint64_t n);

  /// Picks the context options for this serve: the brown-out cheaper
  /// mode while browned out, ServiceOptions::context otherwise.
  /// `brownout` reports which one, so results get flagged.
  const measures::ContextOptions& PickContext(bool* brownout);

  /// Splices per-request scratch provenance stores into the attached
  /// store in request order, rebasing record ids — byte-identical to
  /// tracing the requests sequentially in-place. Returns each
  /// request's id base (what to add to its scratch-relative ids).
  std::vector<provenance::RecordId> MergeScratchTraces(
      std::vector<provenance::ProvenanceStore>& scratch);

  void MarkCommitFailed(const Status& status);
  void MarkCommitSucceeded();

  ServiceOptions options_;
  Env* env_;  ///< options_.env, or Env::Default(); never nullptr
  EvaluationEngine engine_;
  recommend::Recommender recommender_;
  provenance::ProvenanceStore* provenance_ = nullptr;
  AdmissionController admission_;
  CircuitBreaker breaker_;
  BrownoutController brownout_;
  mutable std::mutex health_mu_;
  ServiceHealth health_;
  LatencyRecorder read_latency_;
  LatencyRecorder commit_latency_;
};

}  // namespace evorec::engine

#endif  // EVOREC_ENGINE_RECOMMENDATION_SERVICE_H_

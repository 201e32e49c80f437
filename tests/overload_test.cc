// Overload robustness, all on FaultInjectionEnv's scripted clock (no
// test here ever sleeps): deadlines expire at stage boundaries,
// admission sheds by cause, the commit circuit breaker walks
// closed -> open -> half-open -> closed, and sustained shed pressure
// brown-outs the service into its declared cheaper mode and recovers
// hysteretically.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

using engine::AdmissionController;
using engine::AdmissionLane;
using engine::AdmissionOptions;
using engine::AdmissionStats;
using engine::BreakerOptions;
using engine::BreakerState;
using engine::BrownoutOptions;
using engine::BrownoutController;
using engine::CircuitBreaker;
using engine::HealthState;
using engine::RecommendationService;
using engine::ServiceHealth;
using engine::ServiceOptions;
using storage::FaultInjectionEnv;
using storage::FaultPlan;

constexpr uint64_t kSeed = 515093;

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline deadline;
  EXPECT_TRUE(deadline.is_infinite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_us(), ~uint64_t{0});
  EXPECT_TRUE(deadline.Check("anything").ok());

  RequestBudget budget;
  EXPECT_TRUE(budget.deadline.is_infinite());
  EXPECT_EQ(budget.enqueue_us, RequestBudget::kNoEnqueueTime);
}

TEST(DeadlineTest, ExpiresOnScriptedClock) {
  FaultInjectionEnv env;
  const Deadline deadline = Deadline::After(&env, 100);
  EXPECT_FALSE(deadline.is_infinite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_us(), 100u);

  env.AdvanceClockMicros(99);
  EXPECT_EQ(deadline.remaining_us(), 1u);
  EXPECT_TRUE(deadline.Check("scoring").ok());

  env.AdvanceClockMicros(1);
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining_us(), 0u);
  const Status late = deadline.Check("scoring");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(late.message().find("scoring"), std::string::npos);
}

TEST(DeadlineTest, AtMicrosPinsAbsoluteInstant) {
  FaultInjectionEnv env;
  env.AdvanceClockMicros(40);
  const Deadline deadline = Deadline::AtMicros(&env, 50);
  EXPECT_EQ(deadline.deadline_us(), 50u);
  EXPECT_EQ(deadline.remaining_us(), 10u);
  env.AdvanceClockMicros(10);
  EXPECT_TRUE(deadline.expired());
}

// --------------------------------------------------------------- Admission

TEST(AdmissionControllerTest, InFlightLimitWithPriorityReserve) {
  FaultInjectionEnv env;
  AdmissionOptions options;
  options.max_in_flight = 2;
  options.priority_reserve = 1;  // bulk saturates at 1
  AdmissionController admission(&env, options);

  auto bulk = admission.Admit(AdmissionLane::kBulk, {});
  ASSERT_TRUE(bulk.ok());
  EXPECT_EQ(admission.in_flight(), 1u);

  // Bulk lane is full; the reserved slot still admits priority work.
  auto bulk2 = admission.Admit(AdmissionLane::kBulk, {});
  EXPECT_EQ(bulk2.status().code(), StatusCode::kResourceExhausted);
  auto priority = admission.Admit(AdmissionLane::kPriority, {});
  ASSERT_TRUE(priority.ok());
  EXPECT_EQ(admission.in_flight(), 2u);

  // Hard cap: even priority sheds now.
  auto priority2 = admission.Admit(AdmissionLane::kPriority, {});
  EXPECT_EQ(priority2.status().code(), StatusCode::kResourceExhausted);

  // Releasing the ticket frees the slot for the next bulk request.
  bulk->Release();
  EXPECT_EQ(admission.in_flight(), 1u);
  auto bulk3 = admission.Admit(AdmissionLane::kBulk, {});
  EXPECT_TRUE(bulk3.ok());

  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted_bulk, 2u);
  EXPECT_EQ(stats.admitted_priority, 1u);
  EXPECT_EQ(stats.shed_in_flight, 2u);
  EXPECT_EQ(stats.sheds(), 2u);
  EXPECT_EQ(stats.peak_in_flight, 2u);
}

TEST(AdmissionControllerTest, TicketReleasesOnDestruction) {
  FaultInjectionEnv env;
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.priority_reserve = 0;
  AdmissionController admission(&env, options);
  {
    auto ticket = admission.Admit(AdmissionLane::kBulk, {});
    ASSERT_TRUE(ticket.ok());
    EXPECT_EQ(admission.in_flight(), 1u);

    // Move keeps exactly one live slot.
    AdmissionController::Ticket moved = std::move(*ticket);
    EXPECT_EQ(admission.in_flight(), 1u);
  }
  EXPECT_EQ(admission.in_flight(), 0u);
}

TEST(AdmissionControllerTest, TokenBucketRefillsOnScriptedClock) {
  FaultInjectionEnv env;
  AdmissionOptions options;
  options.max_in_flight = 0;       // isolate the bucket
  options.bulk_rate_per_sec = 10;  // one token per 100ms
  options.bulk_burst = 2;
  AdmissionController admission(&env, options);

  EXPECT_TRUE(admission.Admit(AdmissionLane::kBulk, {}).ok());
  EXPECT_TRUE(admission.Admit(AdmissionLane::kBulk, {}).ok());
  auto dry = admission.Admit(AdmissionLane::kBulk, {});
  EXPECT_EQ(dry.status().code(), StatusCode::kResourceExhausted);

  // Priority traffic never touches the bucket.
  EXPECT_TRUE(admission.Admit(AdmissionLane::kPriority, {}).ok());

  env.AdvanceClockMicros(100'000);  // one token back
  EXPECT_TRUE(admission.Admit(AdmissionLane::kBulk, {}).ok());
  EXPECT_FALSE(admission.Admit(AdmissionLane::kBulk, {}).ok());

  // A batch of 2 charges 2 tokens at once (but would hold 1 slot).
  env.AdvanceClockMicros(200'000);
  EXPECT_TRUE(admission.Admit(AdmissionLane::kBulk, {}, 2).ok());
  EXPECT_FALSE(admission.Admit(AdmissionLane::kBulk, {}).ok());

  EXPECT_EQ(admission.stats().shed_rate, 3u);
}

TEST(AdmissionControllerTest, QueueTimeCapShedsRottedRequests) {
  FaultInjectionEnv env;
  AdmissionOptions options;
  options.max_queue_us = 100;
  AdmissionController admission(&env, options);

  RequestBudget queued;
  queued.enqueue_us = 0;
  env.AdvanceClockMicros(50);
  EXPECT_TRUE(admission.Admit(AdmissionLane::kBulk, queued).ok());

  env.AdvanceClockMicros(100);  // now 150us in queue
  auto rotted = admission.Admit(AdmissionLane::kBulk, queued);
  EXPECT_EQ(rotted.status().code(), StatusCode::kResourceExhausted);
  // The cap applies to every lane — a rotted commit is late too.
  EXPECT_FALSE(admission.Admit(AdmissionLane::kPriority, queued).ok());

  // No enqueue time recorded: the cap cannot apply.
  EXPECT_TRUE(admission.Admit(AdmissionLane::kBulk, {}).ok());
  EXPECT_EQ(admission.stats().shed_queue, 2u);
}

// ----------------------------------------------------------------- Breaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveTransientFailures) {
  FaultInjectionEnv env;
  BreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown_us = 1000;
  CircuitBreaker breaker(&env, options);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure(UnavailableError("eio"));
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure(UnavailableError("eio"));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 1u);

  // Open: fast-fail without touching anything, naming the evidence.
  const Status refused = breaker.Allow();
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.message().find("3 consecutive"), std::string::npos);
  EXPECT_GE(breaker.stats().fast_fails, 1u);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  FaultInjectionEnv env;
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_us = 1000;
  CircuitBreaker breaker(&env, options);

  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure(UnavailableError("eio"));
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  env.AdvanceClockMicros(999);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow().ok());

  env.AdvanceClockMicros(1);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // Exactly one probe wins; a second caller keeps fast-failing.
  EXPECT_TRUE(breaker.Allow().ok());
  EXPECT_FALSE(breaker.Allow().ok());
  EXPECT_EQ(breaker.stats().probes, 1u);

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_EQ(breaker.stats().consecutive_failures, 0u);
}

TEST(CircuitBreakerTest, FailedProbeReopensForFreshCooldown) {
  FaultInjectionEnv env;
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_us = 1000;
  CircuitBreaker breaker(&env, options);

  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure(UnavailableError("eio"));
  env.AdvanceClockMicros(1000);
  ASSERT_TRUE(breaker.Allow().ok());  // probe
  breaker.RecordFailure(UnavailableError("still sick"));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().reopens, 1u);

  env.AdvanceClockMicros(1000);
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, PermanentFailuresNeverTrip) {
  FaultInjectionEnv env;
  BreakerOptions options;
  options.failure_threshold = 1;
  CircuitBreaker breaker(&env, options);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure(InvalidArgumentError("caller bug"));
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().opens, 0u);
  EXPECT_EQ(breaker.stats().consecutive_failures, 0u);
}

TEST(CircuitBreakerTest, SuccessResetsTheStreak) {
  FaultInjectionEnv env;
  BreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(&env, options);

  breaker.RecordFailure(UnavailableError("eio"));
  breaker.RecordFailure(UnavailableError("eio"));
  breaker.RecordSuccess();
  breaker.RecordFailure(UnavailableError("eio"));
  breaker.RecordFailure(UnavailableError("eio"));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(UnavailableError("eio"));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

// ---------------------------------------------------------------- Brownout

TEST(BrownoutControllerTest, EntersUnderPressureExitsHysteretically) {
  FaultInjectionEnv env;
  BrownoutOptions options;
  options.enabled = true;
  options.window_us = 1000;
  options.enter_sheds_per_window = 3;
  options.exit_clean_windows = 2;
  BrownoutController brownout(&env, options);

  EXPECT_FALSE(brownout.Active());
  brownout.OnShed();
  brownout.OnShed();
  EXPECT_FALSE(brownout.Active());
  brownout.OnShed();  // third shed in the window trips it
  EXPECT_TRUE(brownout.Active());
  EXPECT_EQ(brownout.stats().entries, 1u);

  // One clean window is not enough to recover...
  env.AdvanceClockMicros(2000);  // closes the shedding window + 1 clean
  EXPECT_TRUE(brownout.Active());
  // ...two are (hysteresis).
  env.AdvanceClockMicros(1000);
  EXPECT_FALSE(brownout.Active());
  EXPECT_EQ(brownout.stats().exits, 1u);
}

TEST(BrownoutControllerTest, ShedDuringRecoveryResetsCleanCount) {
  FaultInjectionEnv env;
  BrownoutOptions options;
  options.enabled = true;
  options.window_us = 1000;
  options.enter_sheds_per_window = 1;
  options.exit_clean_windows = 2;
  BrownoutController brownout(&env, options);

  brownout.OnShed();
  ASSERT_TRUE(brownout.Active());
  env.AdvanceClockMicros(2000);  // one clean window banked
  brownout.OnShed();             // pressure is back: restart the count
  env.AdvanceClockMicros(2000);  // only one clean window since
  EXPECT_TRUE(brownout.Active());
  env.AdvanceClockMicros(1000);
  EXPECT_FALSE(brownout.Active());
}

TEST(BrownoutControllerTest, DisabledIsInert) {
  FaultInjectionEnv env;
  BrownoutController brownout(&env, BrownoutOptions{});
  for (int i = 0; i < 100; ++i) brownout.OnShed();
  EXPECT_FALSE(brownout.Active());
  EXPECT_EQ(brownout.stats().sheds_observed, 0u);
}

// ----------------------------------------------------------- Service level

rdf::KnowledgeBase MakeBase(uint64_t seed) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 14;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 50;
  instance_options.edge_count = 80;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  return std::move(generated.kb);
}

version::ChangeSet NextChanges(version::VersionedKnowledgeBase& vkb,
                               uint32_t epoch) {
  auto head = vkb.Snapshot(vkb.head());
  EXPECT_TRUE(head.ok());
  workload::EvolutionOptions options;
  options.operations = 15;
  options.epoch = epoch;
  options.seed = kSeed + 100 + epoch;
  workload::EvolutionOutcome outcome =
      workload::GenerateEvolution(**head, vkb.dictionary(), options);
  return std::move(outcome.changes);
}

profile::HumanProfile MakeUser(const rdf::KnowledgeBase& kb,
                               const std::string& name) {
  profile::HumanProfile user(name);
  const schema::SchemaView view = schema::SchemaView::Build(kb);
  if (!view.classes().empty()) user.SetInterest(view.classes()[0], 1.0);
  return user;
}

struct OverloadFixture {
  OverloadFixture()
      : vkb(MakeBase(kSeed)) {
    storage::LogOptions log_options;
    log_options.sync_on_append = true;
    log_options.retry.max_attempts = 2;
    log_options.retry.backoff_micros = 10;
    log_options.env = &env;
    auto opened = storage::CommitLog::Open("wal.evlog", log_options);
    EXPECT_TRUE(opened.ok());
    log = std::make_unique<storage::CommitLog>(std::move(*opened));
    vkb.AttachCommitLog(log.get());
  }

  FaultInjectionEnv env;
  version::VersionedKnowledgeBase vkb;
  std::unique_ptr<storage::CommitLog> log;
  measures::MeasureRegistry registry = measures::DefaultRegistry();
};

TEST(OverloadServiceTest, ExpiredBudgetDoesZeroContextBuilds) {
  OverloadFixture fx;
  ServiceOptions options;
  options.engine.threads = 2;
  options.env = &fx.env;
  RecommendationService service(fx.registry, options);

  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  const engine::EngineStats after_commit = service.engine_stats();

  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  std::vector<profile::HumanProfile> users;
  for (int i = 0; i < 3; ++i) {
    users.push_back(MakeUser(**base_kb, "u" + std::to_string(i)));
  }
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& user : users) pointers.push_back(&user);

  // A budget that is already dead on arrival: the whole batch is
  // refused at the first stage boundary, before the engine is asked
  // for anything.
  RequestBudget budget;
  budget.deadline = Deadline::After(&fx.env, 10);
  fx.env.AdvanceClockMicros(20);
  auto batch = service.RecommendBatch(fx.vkb, 0, 1, pointers, budget);
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);

  const engine::EngineStats stats = service.engine_stats();
  EXPECT_EQ(stats.contexts_built, after_commit.contexts_built);
  EXPECT_EQ(stats.context_misses, after_commit.context_misses);
  EXPECT_EQ(service.health().deadline_exceeded, pointers.size());

  // Same request with time on the clock serves normally.
  auto served = service.RecommendBatch(fx.vkb, 0, 1, pointers);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->size(), pointers.size());
}

TEST(OverloadServiceTest, DefaultDeadlineAppliesToBudgetlessRequests) {
  OverloadFixture fx;
  ServiceOptions options;
  options.engine.threads = 2;
  options.env = &fx.env;
  options.overload.default_deadline_us = 50;
  RecommendationService service(fx.registry, options);

  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  profile::HumanProfile user = MakeUser(**base_kb, "reader");

  // The default deadline starts at entry, so a normal call is fine
  // (the scripted clock does not advance mid-request)...
  EXPECT_TRUE(service.Recommend(fx.vkb, 0, 1, user).ok());
  // ...but an explicit already-expired budget still loses.
  RequestBudget expired;
  expired.deadline = Deadline::After(&fx.env, 1);
  fx.env.AdvanceClockMicros(5);
  auto late = service.Recommend(fx.vkb, 0, 1, user, expired);
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(OverloadServiceTest, ShedsAreCountedAndTyped) {
  OverloadFixture fx;
  ServiceOptions options;
  options.engine.threads = 2;
  options.env = &fx.env;
  options.overload.admission_enabled = true;
  options.overload.admission.bulk_rate_per_sec = 1;
  options.overload.admission.bulk_burst = 1;
  RecommendationService service(fx.registry, options);

  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  profile::HumanProfile user = MakeUser(**base_kb, "reader");

  EXPECT_TRUE(service.Recommend(fx.vkb, 0, 1, user).ok());
  auto shed = service.Recommend(fx.vkb, 0, 1, user);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  const ServiceHealth health = service.health();
  EXPECT_EQ(health.shed_requests, 1u);
  EXPECT_EQ(service.admission_stats().shed_rate, 1u);
  // Commits ride the priority lane: the empty bulk bucket is not
  // their problem.
  auto v2 = service.Commit(fx.vkb, NextChanges(fx.vkb, 2), "svc", "c2");
  EXPECT_TRUE(v2.ok()) << v2.status().ToString();

  // The operator summary names every part of the taxonomy.
  const std::string text = health.ToString();
  EXPECT_NE(text.find("HEALTHY"), std::string::npos);
  EXPECT_NE(text.find("shed=1"), std::string::npos);
  EXPECT_NE(text.find("deadline_exceeded=0"), std::string::npos);
  EXPECT_NE(text.find("breaker_fast_fails=0"), std::string::npos);
}

TEST(OverloadServiceTest, CommitBreakerFastFailsAndRecovers) {
  OverloadFixture fx;
  ServiceOptions options;
  options.engine.threads = 2;
  options.env = &fx.env;
  options.overload.breaker_enabled = true;
  options.overload.breaker.failure_threshold = 2;
  options.overload.breaker.cooldown_us = 1000;
  RecommendationService service(fx.registry, options);

  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ASSERT_EQ(fx.vkb.head(), 1u);

  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  profile::HumanProfile user = MakeUser(**base_kb, "reader");

  // The disk goes bad: two real failures open the breaker (each commit
  // burns the WAL's whole retry budget first).
  FaultPlan plan;
  plan.fail_writes = 100;
  fx.env.set_plan(plan);
  for (int i = 0; i < 2; ++i) {
    auto failed = service.Commit(fx.vkb, NextChanges(fx.vkb, 2), "svc", "x");
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(service.breaker_stats().state, BreakerState::kOpen);
  EXPECT_EQ(service.health().failed_commits, 2u);
  EXPECT_EQ(service.health_state(), HealthState::kDegraded);

  // Open: the next commit fast-fails without touching the device...
  const uint64_t writes_before = fx.env.counters().writes;
  auto refused = service.Commit(fx.vkb, NextChanges(fx.vkb, 2), "svc", "x");
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fx.env.counters().writes, writes_before);
  ServiceHealth health = service.health();
  EXPECT_EQ(health.breaker_fast_fails, 1u);
  // ...and is not a *new* failure: the evidence count stands.
  EXPECT_EQ(health.failed_commits, 2u);

  // DEGRADED serving continues the whole time (PR7 machinery).
  auto list = service.Recommend(fx.vkb, 0, 1, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_TRUE(list->degraded);

  // The disk heals, but the cool-down still gates: fast-fail until the
  // scripted clock passes it, then the half-open probe commits for
  // real and closes the breaker.
  fx.env.ClearFaults();
  EXPECT_FALSE(service.Commit(fx.vkb, NextChanges(fx.vkb, 2), "svc", "x").ok());
  fx.env.AdvanceClockMicros(1000);
  auto probe = service.Commit(fx.vkb, NextChanges(fx.vkb, 2), "svc", "c2");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(service.breaker_stats().state, BreakerState::kClosed);
  EXPECT_EQ(service.breaker_stats().closes, 1u);
  EXPECT_EQ(service.health_state(), HealthState::kHealthy);
  EXPECT_EQ(service.health().recoveries, 1u);

  // No acked commit was lost, no refused one leaked in: exactly the
  // two successful commits are history.
  EXPECT_EQ(fx.vkb.head(), 2u);
  list = service.Recommend(fx.vkb, 1, 2, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_FALSE(list->degraded);
}

TEST(OverloadServiceTest, BrownoutServesCheaperModeAndRecovers) {
  OverloadFixture fx;
  ServiceOptions options;
  options.engine.threads = 2;
  options.env = &fx.env;
  options.overload.admission_enabled = true;
  options.overload.admission.max_queue_us = 10;
  options.overload.brownout.enabled = true;
  options.overload.brownout.window_us = 1000;
  options.overload.brownout.enter_sheds_per_window = 2;
  options.overload.brownout.exit_clean_windows = 2;
  RecommendationService service(fx.registry, options);

  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  profile::HumanProfile user = MakeUser(**base_kb, "reader");

  // Fresh requests serve the configured (exact) mode.
  auto list = service.Recommend(fx.vkb, 0, 1, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_FALSE(list->brownout);

  // Two rotted requests shed inside one window: brown-out trips.
  RequestBudget rotted;
  rotted.enqueue_us = 0;
  fx.env.AdvanceClockMicros(100);
  for (int i = 0; i < 2; ++i) {
    auto shed = service.Recommend(fx.vkb, 0, 1, user, rotted);
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(service.brownout_stats().active);
  EXPECT_TRUE(service.health().brownout_active);

  // Fresh requests still serve — in the declared cheaper mode,
  // flagged.
  list = service.Recommend(fx.vkb, 0, 1, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_TRUE(list->brownout);
  EXPECT_FALSE(list->items.empty());
  EXPECT_GE(service.health().brownout_serves, 1u);

  // Pressure clears: after the hysteresis window count, back to the
  // configured mode.
  fx.env.AdvanceClockMicros(3000);
  list = service.Recommend(fx.vkb, 0, 1, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_FALSE(list->brownout);
  EXPECT_EQ(service.brownout_stats().exits, 1u);
  EXPECT_FALSE(service.health().brownout_active);
}

TEST(OverloadStreamTest, OverloadRampCompressesArrivalGaps) {
  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.properties = 12;
  scale.instances = 200;
  scale.edges = 400;
  scale.versions = 2;
  scale.operations = 60;
  workload::Scenario scenario = workload::MakeDbpediaLike(7, scale);
  workload::StreamOptions stream_options;
  stream_options.mode = workload::StreamMode::kOverloadRamp;
  stream_options.reads = 120;
  stream_options.commits = 4;
  stream_options.population = 8;
  stream_options.mean_gap_us = 1000;
  stream_options.overload_factor = 8.0;
  auto stream = workload::GenerateStream(scenario, stream_options);

  ASSERT_EQ(stream.read_count, stream_options.reads);
  ASSERT_EQ(stream.commit_count, stream_options.commits);
  EXPECT_EQ(std::string(workload::StreamModeName(stream.mode)),
            "overload-ramp");

  // Deterministic per seed.
  auto again = workload::GenerateStream(scenario, stream_options);
  ASSERT_EQ(again.events.size(), stream.events.size());
  for (size_t i = 0; i < stream.events.size(); ++i) {
    EXPECT_EQ(again.events[i].timestamp_us, stream.events[i].timestamp_us);
  }

  // The ramp is real: the last quarter's mean inter-arrival gap is a
  // small fraction of the first quarter's.
  const size_t n = stream.events.size();
  auto mean_gap = [&](size_t begin, size_t end) {
    double total = 0.0;
    for (size_t i = begin + 1; i < end; ++i) {
      total += static_cast<double>(stream.events[i].timestamp_us -
                                   stream.events[i - 1].timestamp_us);
    }
    return total / static_cast<double>(end - begin - 1);
  };
  const double head_gap = mean_gap(0, n / 4);
  const double tail_gap = mean_gap(3 * n / 4, n);
  EXPECT_LT(tail_gap, head_gap / 2.0);
}

}  // namespace
}  // namespace evorec

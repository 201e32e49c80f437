// Health monitor: the paper's §III.e motivating scenario. A clinical
// KB evolves; analysts may study evolution only through k-anonymous
// aggregate views, and strict access rules keep sensitive regions out
// of their recommendations entirely — while the data protection
// officer (DPO) sees the full picture.
//
// Served through the engine layer: a RecommendationService with the
// access policy attached builds the evolution context once; the
// aggregate panels and both principals' recommendations all read the
// same cached evaluation (the policy gate still runs per principal).
//
//   $ ./health_monitor

#include <cstdio>
#include <iostream>

#include "evorec.h"

int main() {
  using namespace evorec;

  workload::ScenarioScale scale;
  scale.classes = 70;
  scale.properties = 25;
  scale.instances = 1500;
  scale.edges = 2500;
  scale.versions = 2;
  scale.operations = 350;
  workload::Scenario scenario = workload::MakeClinicalKb(777, scale);
  std::printf("clinical KB: %zu classes, %zu sensitive\n",
              scenario.classes.size(), scenario.sensitive_classes.size());

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  engine::RecommendationService service(registry);
  service.AttachAccessPolicy(&scenario.policy);

  const version::VersionId head = scenario.vkb->head();
  auto evaluation = service.engine().Evaluate(*scenario.vkb, head - 1, head);
  if (!evaluation.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 evaluation.status().ToString().c_str());
    return 1;
  }
  const measures::EvolutionContext& ctx = (*evaluation)->context();

  // --- 1. The raw per-class evolution report would re-identify:
  const auto head_kb = scenario.vkb->Snapshot(head);
  const schema::SchemaView view = schema::SchemaView::Build(**head_kb);
  anonymity::AggregateTable raw({"class"}, "changes");
  for (rdf::TermId cls : ctx.union_classes()) {
    const size_t population = view.InstanceCount(cls);
    if (population == 0) continue;
    (void)raw.AddRow({(*head_kb)->dictionary().term(cls).lexical},
                     static_cast<double>(
                         ctx.delta_index().ExtendedChanges(cls)),
                     population);
  }
  const double raw_risk = anonymity::ReidentificationRisk(raw);
  std::printf(
      "raw aggregate view: %zu rows, re-identification risk %.2f "
      "(smallest group: %.0f patient(s))\n",
      raw.row_count(), raw_risk, raw_risk > 0.0 ? 1.0 / raw_risk : 0.0);

  // --- 2. Enforce k-anonymity before anyone sees it:
  const size_t k = 5;
  const anonymity::ValueHierarchy taxonomy =
      anonymity::ValueHierarchy::FromClassHierarchy(view.hierarchy(),
                                                    (*head_kb)->dictionary());
  auto anonymized = anonymity::Anonymize(raw, k, {taxonomy});
  if (!anonymized.ok()) {
    std::fprintf(stderr, "anonymization failed: %s\n",
                 anonymized.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "k=%zu view: %zu rows, generalisation level %zu, %zu patients "
      "suppressed, information loss %.2f, risk %.3f\n",
      k, anonymized->table.row_count(),
      anonymized->levels.empty() ? size_t{0} : anonymized->levels[0],
      anonymized->suppressed_count, anonymized->information_loss,
      anonymity::ReidentificationRisk(anonymized->table));
  TablePrinter table({"generalised class", "changes", "patients"});
  for (const auto& row : anonymized->table.rows()) {
    table.AddRow({row.qi[0], TablePrinter::Cell(row.value, 0),
                  TablePrinter::Cell(row.count)});
    if (table.row_count() >= 8) break;
  }
  table.Print(std::cout);

  // --- 3. Recommendations respect the access policy — served from
  // the same cached evaluation the panels above used:
  profile::HumanProfile analyst("analyst");
  // The analyst is (maliciously?) most interested in the sensitive
  // region.
  if (!scenario.sensitive_classes.empty()) {
    analyst.SetInterest(scenario.sensitive_classes[0], 1.0);
  }
  auto analyst_view = service.Recommend(*scenario.vkb, head - 1, head,
                                        analyst);
  profile::HumanProfile dpo("dpo");
  if (!scenario.sensitive_classes.empty()) {
    dpo.SetInterest(scenario.sensitive_classes[0], 1.0);
  }
  auto dpo_view = service.Recommend(*scenario.vkb, head - 1, head, dpo);
  if (!analyst_view.ok() || !dpo_view.ok()) {
    std::fprintf(stderr, "recommendation failed\n");
    return 1;
  }
  std::printf(
      "\nanalyst: %zu candidates visible, %zu dropped, %zu report "
      "entries redacted\n",
      analyst_view->candidate_pool_size, analyst_view->dropped_candidates,
      analyst_view->redacted_terms);
  std::printf("dpo:     %zu candidates visible, %zu dropped, %zu redacted\n",
              dpo_view->candidate_pool_size, dpo_view->dropped_candidates,
              dpo_view->redacted_terms);
  std::printf("\nanalyst's (policy-filtered) package:\n");
  for (const auto& item : analyst_view->items) {
    std::printf("  %s\n", item.candidate.id.c_str());
  }
  const engine::EngineStats stats = service.engine_stats();
  std::printf(
      "\nengine: %llu context build(s) served every panel and both "
      "principals (%llu cache hits)\n",
      static_cast<unsigned long long>(stats.contexts_built),
      static_cast<unsigned long long>(stats.context_hits));

  // --- 4. Operations under failure: a clinical monitor cannot go
  // dark because a disk does. The service runs on durable storage
  // (checkpoints + write-ahead log); when a commit fails it flips to
  // an explicit DEGRADED state and keeps serving the last committed
  // evaluation, flagged, until a commit succeeds again. Scripted here
  // with the fault-injection environment (docs/STORAGE.md).
  const auto state_name = [](engine::HealthState s) {
    return s == engine::HealthState::kDegraded ? "DEGRADED" : "OK";
  };
  storage::FaultInjectionEnv disk;  // the demo's scriptable "disk"
  storage::SnapshotOptions snap_options;
  snap_options.sync = true;
  snap_options.env = &disk;
  if (!version::SaveCheckpoint(*scenario.vkb, head, "ops/checkpoints", 3,
                               snap_options)
           .ok()) {
    std::fprintf(stderr, "checkpoint failed\n");
    return 1;
  }
  storage::LogOptions log_options;
  log_options.sync_on_append = true;
  log_options.env = &disk;
  auto wal = storage::CommitLog::Open("ops/wal.evlog", log_options);
  if (!wal.ok()) {
    std::fprintf(stderr, "wal open failed\n");
    return 1;
  }
  scenario.vkb->AttachCommitLog(&*wal);

  const auto next_changes = [&scenario](uint32_t epoch) {
    const auto now = scenario.vkb->Snapshot(scenario.vkb->head());
    workload::EvolutionOptions options;
    options.operations = 40;
    options.epoch = epoch;
    options.seed = 778 + epoch;
    return workload::GenerateEvolution(**now, scenario.vkb->dictionary(),
                                       options)
        .changes;
  };

  std::printf("\n[ops] health: %s\n", state_name(service.health_state()));
  storage::FaultPlan outage;
  outage.fail_writes = 10;  // outlasts the WAL's retry budget
  disk.set_plan(outage);
  auto broken = service.Commit(*scenario.vkb, next_changes(50), "ops",
                               "during outage");
  engine::ServiceHealth ops_health = service.health();
  std::printf(
      "[ops] commit during disk outage: %s\n[ops] health: %s "
      "(failed commits: %llu, last error: %s)\n",
      broken.ok() ? "ok?!" : "failed (history untouched)",
      state_name(ops_health.state),
      static_cast<unsigned long long>(ops_health.failed_commits),
      ops_health.last_error.c_str());

  auto stale_view = service.Recommend(*scenario.vkb, head - 1, head, dpo);
  if (stale_view.ok()) {
    std::printf(
        "[ops] dpo read while degraded: %zu item(s), degraded flag: %s\n",
        stale_view->items.size(), stale_view->degraded ? "true" : "false");
  }

  disk.ClearFaults();  // the disk comes back
  auto healed = service.Commit(*scenario.vkb, next_changes(51), "ops",
                               "after repair");
  ops_health = service.health();
  std::printf(
      "[ops] commit after repair: %s\n[ops] health: %s (recoveries: %llu, "
      "degraded reads served: %llu)\n",
      healed.ok() ? "ok" : "failed", state_name(ops_health.state),
      static_cast<unsigned long long>(ops_health.recoveries),
      static_cast<unsigned long long>(ops_health.degraded_serves));

  // A restart self-heals from the checkpoint directory + WAL and says
  // exactly what it did:
  version::RecoveryOptions recovery_options;
  recovery_options.env = &disk;
  auto recovered = version::Recover("ops/checkpoints", "ops/wal.evlog",
                                    recovery_options);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("\n[ops] restart recovery:\n%s",
              recovered->report.ToString().c_str());

  // --- 5. Overload: when demand outruns capacity the monitor must
  // refuse crisply, not let every queue rot until the whole ward's
  // p99 blows. A front-door service runs the overload stack on the
  // same scripted clock: rotted requests are shed with a typed
  // kResourceExhausted, sustained shedding trips a hysteretic
  // brown-out into a declared cheaper scoring mode (results flagged),
  // and recovery is automatic once pressure clears
  // (docs/ARCHITECTURE.md, "Overload control").
  engine::ServiceOptions front_options;
  front_options.env = &disk;  // scripted clock — deterministic demo
  front_options.overload.admission_enabled = true;
  front_options.overload.admission.max_queue_us = 10;
  front_options.overload.brownout.enabled = true;
  front_options.overload.brownout.window_us = 1000;
  front_options.overload.brownout.enter_sheds_per_window = 2;
  front_options.overload.brownout.exit_clean_windows = 2;
  engine::RecommendationService front(registry, front_options);
  front.AttachAccessPolicy(&scenario.policy);

  const version::VersionId tip = scenario.vkb->head();
  auto calm = front.Recommend(*scenario.vkb, tip - 1, tip, dpo);
  std::printf("\n[overload] calm traffic: %s\n",
              calm.ok() ? "served (exact mode)"
                        : calm.status().ToString().c_str());

  // A surge: requests arrive having already waited past the queue cap.
  RequestBudget rotted;
  rotted.enqueue_us = 0;
  disk.AdvanceClockMicros(100);
  for (int i = 0; i < 2; ++i) {
    auto shed = front.Recommend(*scenario.vkb, tip - 1, tip, dpo, rotted);
    std::printf("[overload] rotted request: %s\n",
                shed.ok() ? "served?!" : shed.status().ToString().c_str());
  }
  auto brown = front.Recommend(*scenario.vkb, tip - 1, tip, dpo);
  if (brown.ok()) {
    std::printf("[overload] under pressure: served, brownout flag: %s\n",
                brown->brownout ? "true" : "false");
  }
  std::printf("[overload] health during surge:\n%s\n",
              front.health().ToString().c_str());

  // The surge ends; two clean windows later the exact mode is back.
  disk.AdvanceClockMicros(3000);
  auto after = front.Recommend(*scenario.vkb, tip - 1, tip, dpo);
  if (after.ok()) {
    std::printf(
        "[overload] pressure cleared: served, brownout flag: %s "
        "(brown-outs entered: %llu, exited: %llu)\n",
        after->brownout ? "true" : "false",
        static_cast<unsigned long long>(front.brownout_stats().entries),
        static_cast<unsigned long long>(front.brownout_stats().exits));
  }
  return 0;
}

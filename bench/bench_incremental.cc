// E14 — incremental measure maintenance. The serving-loop write path:
// after a commit of |δ| triples, CommitAndRefresh advances the head
// artefacts from the predecessor's (affected-source frontier, cached
// chunk splicing, O(|δ|) delta derivation) instead of rebuilding them
// — while producing bit-identical results (proven by the differential
// suite; this binary measures the speed side of the claim).
//
// Claim: at small commits (≤10 triples) the refresh is ≥5× faster
// than the full per-commit recompute the cold path performs, and the
// advantage decays gracefully as commits grow toward whole-graph
// churn.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace evorec::bench {
namespace {

constexpr size_t kClasses = 1600;  // schema-heavy: Brandes dominates

// Base history: a schema-heavy KB with one committed transition, so
// the engines have a (head−1, head) pair to warm up on.
std::unique_ptr<version::VersionedKnowledgeBase> MakeBase(uint64_t seed) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = kClasses;
  schema_options.property_count = kClasses / 2 + 10;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = kClasses;
  instance_options.edge_count = kClasses * 2;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  auto vkb = std::make_unique<version::VersionedKnowledgeBase>(
      std::move(generated.kb));
  auto head = vkb->Snapshot(vkb->head());
  workload::EvolutionOptions evolution_options;
  evolution_options.operations = kClasses;
  evolution_options.mix = workload::ChangeMix::SchemaHeavy();
  evolution_options.seed = seed + 2;
  workload::EvolutionOutcome outcome = workload::GenerateEvolution(
      **head, vkb->dictionary(), evolution_options);
  (void)vkb->Commit(std::move(outcome.changes), "generator", "base", 1);
  return vkb;
}

workload::EvolutionOptions CommitOptions(size_t operations, size_t step) {
  workload::EvolutionOptions options;
  options.operations = operations;
  // Instance churn: the everyday small commit. The class universe
  // stays fixed, so the refresher always takes the advance path and
  // the frontier tracks the actual adjacency perturbation.
  options.mix = workload::ChangeMix::InstanceChurn();
  options.epoch = 100 + step;
  options.seed = 9000 + step;
  return options;
}

// Warms an engine on the current head pair and forces the head
// version's betweenness, so the first refresh has a ready predecessor
// (the steady serving-loop state).
void WarmHeadPair(engine::EvaluationEngine& engine,
                  const version::VersionedKnowledgeBase& vkb) {
  auto warm = engine.Evaluate(vkb, vkb.head() - 1, vkb.head());
  if (warm.ok()) (void)(*warm)->context().betweenness_after();
}

void PrintIncrementalTable() {
  PrintHeader("E14 — per-commit refresh vs full recompute",
              "a <=10-triple commit refreshes the head evaluation >=5x "
              "faster than the cold path's full per-version rebuild, "
              "with measured work proportional to the affected-source "
              "frontier");
  TablePrinter table({"commit_ops", "delta_triples", "refresh_ms", "full_ms",
                      "speedup", "affected_sources", "total_sources"});

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  constexpr size_t kRepeats = 4;
  for (size_t operations : {1u, 4u, 12u, 40u, 400u}) {
    // Two identically-seeded histories: the refresher advances through
    // one, the cold engine re-evaluates fresh heads of the other. The
    // deterministic generator replays the same logical commit stream
    // on both.
    auto vkb_refresh = MakeBase(501);
    auto vkb_cold = MakeBase(501);

    engine::EvaluationEngine refresher(registry, {.threads = 4});
    engine::EvaluationEngine cold(registry, {.threads = 4});
    WarmHeadPair(refresher, *vkb_refresh);
    WarmHeadPair(cold, *vkb_cold);

    double refresh_ms = 0.0;
    double full_ms = 0.0;
    size_t delta_triples = 0;
    const engine::IncrementalStats before = refresher.incremental_stats();
    for (size_t step = 0; step < kRepeats; ++step) {
      const workload::EvolutionOptions options =
          CommitOptions(operations, operations * 10 + step);

      auto head_r = vkb_refresh->Snapshot(vkb_refresh->head());
      if (!head_r.ok()) return;
      workload::EvolutionOutcome stream_r = workload::GenerateEvolution(
          **head_r, vkb_refresh->dictionary(), options);
      Stopwatch refresh_timer;
      auto refreshed = refresher.CommitAndRefresh(
          *vkb_refresh, std::move(stream_r.changes), "bench", "refresh");
      if (!refreshed.ok()) return;
      (void)refreshed->evaluation->context().betweenness_after();
      refresh_ms += refresh_timer.ElapsedMillis();
      delta_triples +=
          refreshed->evaluation->context().low_level_delta().size();

      auto head_c = vkb_cold->Snapshot(vkb_cold->head());
      if (!head_c.ok()) return;
      workload::EvolutionOutcome stream_c = workload::GenerateEvolution(
          **head_c, vkb_cold->dictionary(), options);
      if (!vkb_cold->Commit(std::move(stream_c.changes), "bench", "cold")
               .ok()) {
        return;
      }
      Stopwatch full_timer;
      auto rebuilt =
          cold.Evaluate(*vkb_cold, vkb_cold->head() - 1, vkb_cold->head());
      if (!rebuilt.ok()) return;
      (void)(*rebuilt)->context().betweenness_after();
      full_ms += full_timer.ElapsedMillis();
    }
    const engine::IncrementalStats after = refresher.incremental_stats();

    table.AddRow({TablePrinter::Cell(operations),
                  TablePrinter::Cell(
                      static_cast<double>(delta_triples) / kRepeats, 1),
                  TablePrinter::Cell(refresh_ms / kRepeats, 3),
                  TablePrinter::Cell(full_ms / kRepeats, 3),
                  TablePrinter::Cell(
                      refresh_ms > 0 ? full_ms / refresh_ms : 0, 2),
                  TablePrinter::Cell(after.affected_sources -
                                     before.affected_sources),
                  TablePrinter::Cell(after.total_sources -
                                     before.total_sources)});
  }
  table.Print(std::cout);
  std::printf(
      "expected shape: speedup >= 5 on the small-commit rows, decaying "
      "toward 1 as affected_sources approaches total_sources.\n");
}

// How many commits a timed run stacks onto one history before
// resetting to a fresh base (inside PauseTiming). Without the reset a
// long random churn stream drifts the instance population until most
// commits perturb class adjacency — a different regime than the
// steady small-history serving loop the claim is about (and the one
// the untimed table measures).
constexpr size_t kTimedResetInterval = 8;

// Timed: one incremental refresh per iteration, manual timing (the
// Stopwatch brackets exactly the commit+refresh+betweenness interval;
// commit generation and history resets never pollute the clock).
// Arg = generator operations per commit.
void BM_CommitAndRefresh(benchmark::State& state) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  std::unique_ptr<version::VersionedKnowledgeBase> vkb;
  std::unique_ptr<engine::EvaluationEngine> engine;
  size_t step = 0;
  double delta_triples = 0;
  for (auto _ : state) {
    if (step % kTimedResetInterval == 0) {
      vkb = MakeBase(601);
      engine = std::make_unique<engine::EvaluationEngine>(
          registry, engine::EngineOptions{.threads = 4});
      WarmHeadPair(*engine, *vkb);
    }
    auto head = vkb->Snapshot(vkb->head());
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb->dictionary(),
        CommitOptions(static_cast<size_t>(state.range(0)), step++));
    Stopwatch timer;
    auto refreshed = engine->CommitAndRefresh(
        *vkb, std::move(outcome.changes), "bench", "bm");
    if (refreshed.ok()) {
      benchmark::DoNotOptimize(
          refreshed->evaluation->context().betweenness_after().data());
      delta_triples += static_cast<double>(
          refreshed->evaluation->context().low_level_delta().size());
    }
    state.SetIterationTime(timer.ElapsedMillis() / 1000.0);
  }
  state.counters["delta_triples"] =
      benchmark::Counter(delta_triples, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CommitAndRefresh)->Arg(1)->Arg(4)->Arg(12)->Arg(40)->Arg(400)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

// Timed baseline: the cold path's answer to the same commit — a full
// rebuild of the new head's artefacts plus a store-diff pair build.
void BM_ColdEvaluateAfterCommit(benchmark::State& state) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  std::unique_ptr<version::VersionedKnowledgeBase> vkb;
  std::unique_ptr<engine::EvaluationEngine> engine;
  size_t step = 0;
  for (auto _ : state) {
    if (step % kTimedResetInterval == 0) {
      vkb = MakeBase(601);
      engine = std::make_unique<engine::EvaluationEngine>(
          registry, engine::EngineOptions{.threads = 4});
      WarmHeadPair(*engine, *vkb);
    }
    auto head = vkb->Snapshot(vkb->head());
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb->dictionary(),
        CommitOptions(static_cast<size_t>(state.range(0)), step++));
    (void)vkb->Commit(std::move(outcome.changes), "bench", "bm");
    Stopwatch timer;
    auto rebuilt = engine->Evaluate(*vkb, vkb->head() - 1, vkb->head());
    if (rebuilt.ok()) {
      benchmark::DoNotOptimize(
          (*rebuilt)->context().betweenness_after().data());
    }
    state.SetIterationTime(timer.ElapsedMillis() / 1000.0);
  }
}
BENCHMARK(BM_ColdEvaluateAfterCommit)
    ->Arg(1)->Arg(4)->Arg(12)->Arg(40)->Arg(400)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintIncrementalTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// E1 — low-level delta computation and archive policies (paper §II.a).
// Table 1: |δ+|, |δ−|, |δ| and delta-computation wall clock across KB
// scale and change ratio. Table 2: archive policy ablation — storage
// and snapshot cost of the library's one representation (pinned
// segment-sharing snapshots) against bench-local emulations of the
// delta-chain and hybrid policies of [13].

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "bench_common.h"

namespace evorec::bench {
namespace {

void PrintDeltaScalingTable() {
  PrintHeader("E1 — delta computation",
              "|delta| = |delta+| + |delta-| quantifies change and must "
              "scale to large KBs");
  TablePrinter table({"classes", "triples", "ops", "|d+|", "|d-|", "|d|",
                      "delta_ms"});
  for (size_t classes : {50, 200, 800}) {
    for (size_t ops : {100, 500, 2000}) {
      TwoVersionWorkload w = MakeTwoVersionWorkload(
          classes, classes * 20, classes * 35, ops, /*seed=*/17);
      Stopwatch timer;
      const delta::LowLevelDelta delta =
          delta::ComputeLowLevelDelta(w.generated.kb, w.after);
      const double ms = timer.ElapsedMillis();
      table.AddRow({TablePrinter::Cell(classes),
                    TablePrinter::Cell(w.generated.kb.size()),
                    TablePrinter::Cell(ops),
                    TablePrinter::Cell(delta.added.size()),
                    TablePrinter::Cell(delta.removed.size()),
                    TablePrinter::Cell(delta.size()),
                    TablePrinter::Cell(ms, 2)});
    }
  }
  table.Print(std::cout);
}

// Builds a version chain at the E1b default scale (200 classes, 4000
// instances, 7000 edges base; `versions` x `ops_per_version` evolution
// steps) — shared by the E1b table and the replay benchmarks so they
// measure the same workload.
version::VersionedKnowledgeBase MakeVersionChain(size_t versions,
                                                 size_t ops_per_version) {
  TwoVersionWorkload w =
      MakeTwoVersionWorkload(200, 4000, 7000, 100, /*seed=*/23);
  version::VersionedKnowledgeBase vkb(w.generated.kb);
  for (size_t v = 0; v < versions; ++v) {
    workload::EvolutionOptions options;
    options.operations = ops_per_version;
    options.seed = 31 + v;
    options.epoch = v + 1;
    auto head = vkb.Snapshot(vkb.head());
    const workload::EvolutionOutcome outcome =
        workload::GenerateEvolution(**head, vkb.dictionary(), options);
    (void)vkb.Commit(outcome.changes, "bench", "step");
  }
  return vkb;
}

// Bench-local emulation of the delta-chain and hybrid archive policies
// of [13], which the library no longer implements (the way E13 keeps
// its pre-change path). Only the checkpoints are materialised — the
// base, plus every `interval`-th version for the hybrid — and a version
// is rebuilt by copying the nearest checkpoint at or below it,
// replaying the archived change sets after it, and running one Compact.
struct EmulatedArchive {
  // 0 = delta chain (the base is the only checkpoint).
  version::VersionId interval = 0;
  // checkpoints[k] is version k * interval.
  std::vector<std::shared_ptr<const rdf::KnowledgeBase>> checkpoints;
  // changes[v] produced version v; changes[0] is empty.
  std::vector<version::ChangeSet> changes;

  EmulatedArchive(const version::VersionedKnowledgeBase& vkb,
                  version::VersionId checkpoint_interval)
      : interval(checkpoint_interval), changes(1) {
    for (version::VersionId v = 0; v <= vkb.head(); ++v) {
      if (v == 0 || (interval > 0 && v % interval == 0)) {
        checkpoints.push_back(vkb.SharedSnapshot(v).value());
      }
      if (v > 0) changes.push_back(vkb.Changes(v).value());
    }
  }

  rdf::KnowledgeBase Materialize(version::VersionId v) const {
    const version::VersionId k = interval == 0 ? 0 : v / interval;
    const version::VersionId start = k * interval;
    rdf::KnowledgeBase kb = *checkpoints[k];
    for (version::VersionId i = start + 1; i <= v; ++i) {
      kb.store().AddAll(changes[i].additions);
      kb.store().RemoveAll(changes[i].removals);
    }
    kb.store().Compact();
    return kb;
  }

  // Dedup bytes, the accounting VersionedKnowledgeBase::StorageBytes uses.
  size_t StorageBytes() const {
    std::unordered_set<const void*> seen;
    size_t bytes = 0;
    for (const auto& kb : checkpoints) {
      bytes += kb->store().MemoryBytesDedup(seen);
    }
    for (const version::ChangeSet& cs : changes) {
      bytes += cs.size() * sizeof(rdf::Triple);
    }
    return bytes;
  }
};

void PrintArchivePolicyTable() {
  PrintHeader("E1b — archive policy ablation (cf. [13])",
              "segment-sharing snapshots read in O(1) at close to a delta "
              "chain's storage");
  // "storage" is dedup bytes: a frozen segment shared by several
  // versions is billed once. "sec_idx_builds" counts POS/OSP builds
  // performed by the head/mid reads — the SPO-only replay path must
  // keep it at 0.
  TablePrinter table({"policy", "versions", "storage", "snapshot_head_ms",
                      "snapshot_mid_ms", "sec_idx_builds"});
  const version::VersionedKnowledgeBase vkb = MakeVersionChain(12, 120);
  const auto add_row = [&](const char* name, size_t bytes, const auto& read) {
    Stopwatch head_timer;
    const rdf::KnowledgeBase head = read(vkb.head());
    const double head_ms = head_timer.ElapsedMillis();
    Stopwatch mid_timer;
    const rdf::KnowledgeBase mid = read(vkb.head() / 2);
    const double mid_ms = mid_timer.ElapsedMillis();
    const uint64_t sec_idx_builds = head.store().stats().secondary_builds() +
                                    mid.store().stats().secondary_builds();
    table.AddRow({name, TablePrinter::Cell(vkb.version_count()),
                  HumanBytes(bytes), TablePrinter::Cell(head_ms, 2),
                  TablePrinter::Cell(mid_ms, 2),
                  TablePrinter::Cell(sec_idx_builds)});
  };
  add_row("full_materialization", vkb.StorageBytes(),
          [&](version::VersionId v) { return **vkb.SharedSnapshot(v); });
  for (version::VersionId interval : {0u, 4u}) {
    const EmulatedArchive archive(vkb, interval);
    add_row(interval == 0 ? "delta_chain" : "hybrid_checkpoint(4)",
            archive.StorageBytes(),
            [&](version::VersionId v) { return archive.Materialize(v); });
  }
  table.Print(std::cout);
}

void BM_DeltaComputation(benchmark::State& state) {
  const size_t classes = static_cast<size_t>(state.range(0));
  TwoVersionWorkload w = MakeTwoVersionWorkload(
      classes, classes * 20, classes * 35, classes * 2, /*seed=*/17);
  for (auto _ : state) {
    auto delta = delta::ComputeLowLevelDelta(w.generated.kb, w.after);
    benchmark::DoNotOptimize(delta.added.data());
  }
  state.counters["triples"] = static_cast<double>(w.generated.kb.size());
}
BENCHMARK(BM_DeltaComputation)->Arg(50)->Arg(200)->Arg(800);

void BM_PerTermIndex(benchmark::State& state) {
  TwoVersionWorkload w =
      MakeTwoVersionWorkload(200, 4000, 7000, 1000, /*seed=*/17);
  const delta::LowLevelDelta delta =
      delta::ComputeLowLevelDelta(w.generated.kb, w.after);
  for (auto _ : state) {
    auto counts = delta::PerTermChangeCounts(delta);
    benchmark::DoNotOptimize(counts.size());
  }
}
BENCHMARK(BM_PerTermIndex);

// The E1 replay row: reconstruct the head snapshot from the emulated
// delta chain (arg 0) or hybrid with a checkpoint every 4 versions
// (arg 4).
void BM_SnapshotReplay(benchmark::State& state) {
  const version::VersionedKnowledgeBase vkb = MakeVersionChain(12, 120);
  const EmulatedArchive archive(
      vkb, static_cast<version::VersionId>(state.range(0)));
  for (auto _ : state) {
    auto kb = archive.Materialize(vkb.head());
    benchmark::DoNotOptimize(kb.size());
  }
  state.counters["triples"] =
      static_cast<double>(archive.Materialize(vkb.head()).size());
}
BENCHMARK(BM_SnapshotReplay)->Arg(0)->Arg(4);

// Repeated small-delta Compact(): the per-commit indexing cost. Each
// iteration applies a 64-triple add batch plus a 64-triple remove
// batch (steady-state size) and compacts.
void BM_RepeatedSmallDeltaCompact(benchmark::State& state) {
  const uint32_t base = static_cast<uint32_t>(state.range(0));
  rdf::TripleStore store;
  std::vector<rdf::Triple> triples;
  triples.reserve(base);
  for (uint32_t i = 0; i < base; ++i) {
    triples.push_back({i / 8, 1000000u + i % 17, i});
  }
  store.AddAll(triples);
  store.Compact();
  const uint32_t d = 64;
  uint64_t epoch = 0;
  for (auto _ : state) {
    const uint32_t add_tag = static_cast<uint32_t>(epoch % 2);
    for (uint32_t j = 0; j < d; ++j) {
      store.Add({2000000u + j, 7, add_tag});
      store.Remove({2000000u + j, 7, 1 - add_tag});
    }
    store.Compact();
    benchmark::DoNotOptimize(store.size());
    ++epoch;
  }
}
BENCHMARK(BM_RepeatedSmallDeltaCompact)->Arg(20000)->Arg(100000);

// Same write pattern, but every compact is followed by one POS and
// one OSP lookup — the cost of keeping all three permutation indexes
// usable between small deltas.
void BM_RepeatedSmallDeltaCompactAllIndexes(benchmark::State& state) {
  const uint32_t base = static_cast<uint32_t>(state.range(0));
  rdf::TripleStore store;
  std::vector<rdf::Triple> triples;
  triples.reserve(base);
  for (uint32_t i = 0; i < base; ++i) {
    triples.push_back({i / 8, 1000000u + i % 17, i});
  }
  store.AddAll(triples);
  store.Compact();
  const uint32_t d = 64;
  uint64_t epoch = 0;
  for (auto _ : state) {
    const uint32_t add_tag = static_cast<uint32_t>(epoch % 2);
    for (uint32_t j = 0; j < d; ++j) {
      store.Add({2000000u + j, 7, add_tag});
      store.Remove({2000000u + j, 7, 1 - add_tag});
    }
    store.Compact();
    benchmark::DoNotOptimize(
        store.Match({rdf::kAnyTerm, 7, add_tag}).size());      // POS
    benchmark::DoNotOptimize(
        store.Match({rdf::kAnyTerm, rdf::kAnyTerm, 3}).size());  // OSP
    ++epoch;
  }
}
BENCHMARK(BM_RepeatedSmallDeltaCompactAllIndexes)->Arg(20000)->Arg(100000);

void BM_CommitThroughput(benchmark::State& state) {
  TwoVersionWorkload w =
      MakeTwoVersionWorkload(100, 2000, 3500, 100, /*seed=*/29);
  for (auto _ : state) {
    state.PauseTiming();
    version::VersionedKnowledgeBase vkb(w.generated.kb);
    state.ResumeTiming();
    (void)vkb.Commit(w.outcome.changes, "bench", "step");
    benchmark::DoNotOptimize(vkb.version_count());
  }
}
BENCHMARK(BM_CommitThroughput);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintDeltaScalingTable();
  evorec::bench::PrintArchivePolicyTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

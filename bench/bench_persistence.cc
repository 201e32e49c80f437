// E12 — durable versioned-KB storage (storage layer): compact binary
// snapshots + delta-compressed commit log. The paper's evaluation
// workflow assumes long-lived KBs whose history persists across
// sessions; before this layer a cold start had to *regenerate* the
// whole synthetic workload. The figure table records snapshot size
// vs the equivalent N-Triples text (the ≤0.5× claim) and
// cold-start-from-disk vs regenerate-in-memory (the ≥5× claim); the
// timing section is the committed BENCH_* evidence.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

namespace evorec::bench {
namespace {

std::string TempPath(const std::string& name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
         "/evorec_bench_persist_" + name;
}

struct PersistenceScale {
  size_t classes = 120;
  size_t instances = 4000;
  size_t edges = 8000;
  uint32_t versions = 4;
  size_t operations = 400;
};

// Regenerates the whole workload from its seed: schema + instances +
// every evolution transition, committed into a fresh versioned KB.
// This is exactly what a cold start had to do before the storage
// layer existed, so it is the baseline the ≥5× claim is against.
version::VersionedKnowledgeBase Regenerate(const PersistenceScale& scale,
                                           uint64_t seed,
                                           storage::CommitLog* log = nullptr) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = scale.classes;
  schema_options.property_count = scale.classes / 3 + 5;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = scale.instances;
  instance_options.edge_count = scale.edges;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);

  version::VersionedKnowledgeBase vkb(std::move(generated.kb));
  if (log != nullptr) vkb.AttachCommitLog(log);
  for (uint32_t v = 0; v < scale.versions; ++v) {
    auto head = vkb.Snapshot(vkb.head());
    if (!head.ok()) break;
    workload::EvolutionOptions evolution_options;
    evolution_options.operations = scale.operations;
    evolution_options.epoch = v + 1;
    evolution_options.seed = seed + 10 + v;
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb.dictionary(), evolution_options);
    (void)vkb.Commit(std::move(outcome.changes), "gen",
                     "transition " + std::to_string(v + 1));
  }
  return vkb;
}

// Persists `vkb` as the everyday recovery pair: a checkpoint two
// versions behind the head plus the full commit log, so recovery
// exercises both the bulk snapshot load and the log tail replay.
struct DurablePair {
  std::string checkpoint_dir;
  std::string log_path;
};

// Deletes the pair's files, checkpoint directory included.
void RemovePair(const DurablePair& pair) {
  auto checkpoints = version::ListCheckpoints(pair.checkpoint_dir);
  if (checkpoints.ok()) {
    for (const std::string& path : *checkpoints) std::remove(path.c_str());
  }
  std::remove(pair.checkpoint_dir.c_str());
  std::remove(pair.log_path.c_str());
}

DurablePair Persist(const PersistenceScale& scale, uint64_t seed,
                    const std::string& tag) {
  DurablePair pair{TempPath(tag + ".ckpt"), TempPath(tag + ".evlog")};
  RemovePair(pair);  // a stale newer checkpoint would be recovered instead
  auto log = storage::CommitLog::Open(pair.log_path);
  if (!log.ok()) return pair;
  version::VersionedKnowledgeBase vkb = Regenerate(scale, seed, &*log);
  const version::VersionId snap_at =
      vkb.head() >= 2 ? vkb.head() - 2 : vkb.head();
  (void)version::SaveCheckpoint(vkb, snap_at, pair.checkpoint_dir);
  (void)log->Sync();
  return pair;
}

size_t FileSize(const std::string& path) {
  auto bytes = ReadFileToString(path);
  return bytes.ok() ? bytes->size() : 0;
}

void PrintPersistenceTable() {
  PrintHeader(
      "E12 — durable storage: snapshot size + cold start from disk",
      "a compact binary snapshot + commit log turns cold start from "
      "'regenerate + recompute' into 'load + serve' (>=5x) at <=0.5x "
      "the equivalent N-Triples text");

  TablePrinter table({"triples", "nt_kb", "snap_kb", "B_per_triple",
                      "snap_nt_ratio", "save_ms", "load_ms", "regen_ms",
                      "cold_ms", "speedup"});
  const PersistenceScale scales[] = {
      {60, 1000, 2000, 4, 150},
      {120, 4000, 8000, 4, 400},
      {200, 12000, 24000, 4, 700},
      {260, 30000, 60000, 4, 1000},
  };
  for (const PersistenceScale& scale : scales) {
    const uint64_t seed = 42;
    version::VersionedKnowledgeBase vkb = Regenerate(scale, seed);
    auto head_kb = vkb.Snapshot(vkb.head());
    if (!head_kb.ok()) continue;
    const size_t triples = (*head_kb)->size();
    const std::string ntriples =
        rdf::WriteNTriples((*head_kb)->store(), (*head_kb)->dictionary());

    const std::string snapshot_path = TempPath("table.evsnap");
    Stopwatch save_timer;
    if (!version::SaveVersionSnapshot(vkb, vkb.head(), snapshot_path).ok()) {
      continue;
    }
    const double save_ms = save_timer.ElapsedMillis();
    const size_t snapshot_bytes = FileSize(snapshot_path);

    Stopwatch load_timer;
    auto loaded = storage::LoadSnapshot(snapshot_path);
    const double load_ms = load_timer.ElapsedMillis();
    if (!loaded.ok()) continue;
    benchmark::DoNotOptimize(loaded->store.size());

    Stopwatch regen_timer;
    version::VersionedKnowledgeBase regenerated = Regenerate(scale, seed);
    const double regen_ms = regen_timer.ElapsedMillis();
    benchmark::DoNotOptimize(regenerated.head());

    const DurablePair pair = Persist(scale, seed, "table_cold");
    Stopwatch cold_timer;
    auto recovered = version::Recover(pair.checkpoint_dir, pair.log_path);
    double cold_ms = cold_timer.ElapsedMillis();
    if (!recovered.ok()) continue;
    benchmark::DoNotOptimize(recovered->vkb->head());

    table.AddRow(
        {TablePrinter::Cell(triples),
         TablePrinter::Cell(ntriples.size() / 1024.0, 0),
         TablePrinter::Cell(snapshot_bytes / 1024.0, 0),
         TablePrinter::Cell(
             static_cast<double>(snapshot_bytes) /
                 static_cast<double>(triples == 0 ? 1 : triples),
             1),
         TablePrinter::Cell(static_cast<double>(snapshot_bytes) /
                                static_cast<double>(ntriples.size()),
                            3),
         TablePrinter::Cell(save_ms, 2), TablePrinter::Cell(load_ms, 2),
         TablePrinter::Cell(regen_ms, 1), TablePrinter::Cell(cold_ms, 2),
         TablePrinter::Cell(regen_ms / cold_ms, 1)});
    std::remove(snapshot_path.c_str());
    RemovePair(pair);
  }
  table.Print(std::cout);
  std::printf(
      "expected shape: B_per_triple is a handful of bytes (dictionary "
      "text amortised over the whole store), snap_nt_ratio well under "
      "0.5, and speedup = regen_ms/cold_ms >= 5 and growing with "
      "scale — loading is linear in bytes, regeneration pays the full "
      "generator + commit + hash pipeline again.\n");
}

// Timing section — the committed BENCH_* evidence for the E12 claims.

constexpr PersistenceScale kTimedScale = {200, 12000, 24000, 4, 700};
constexpr uint64_t kTimedSeed = 42;

// Snapshot save throughput (encode + atomic write), with the size
// evidence attached as counters.
void BM_SaveSnapshot(benchmark::State& state) {
  version::VersionedKnowledgeBase vkb = Regenerate(kTimedScale, kTimedSeed);
  auto head_kb = vkb.Snapshot(vkb.head());
  if (!head_kb.ok()) {
    state.SkipWithError("workload failed");
    return;
  }
  const std::string path = TempPath("bm_save.evsnap");
  for (auto _ : state) {
    if (!version::SaveVersionSnapshot(vkb, vkb.head(), path).ok()) {
      state.SkipWithError("save failed");
      break;
    }
  }
  const size_t triples = (*head_kb)->size();
  const std::string ntriples =
      rdf::WriteNTriples((*head_kb)->store(), (*head_kb)->dictionary());
  const size_t snapshot_bytes = FileSize(path);
  state.counters["triples_per_s"] = benchmark::Counter(
      static_cast<double>(triples) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["snapshot_bytes"] =
      static_cast<double>(snapshot_bytes);
  state.counters["ntriples_bytes"] =
      static_cast<double>(ntriples.size());
  state.counters["bytes_per_triple"] =
      static_cast<double>(snapshot_bytes) /
      static_cast<double>(triples == 0 ? 1 : triples);
  std::remove(path.c_str());
}
BENCHMARK(BM_SaveSnapshot)->Unit(benchmark::kMillisecond);

// Snapshot load throughput (read + decode + bulk sorted-load).
void BM_LoadSnapshot(benchmark::State& state) {
  version::VersionedKnowledgeBase vkb = Regenerate(kTimedScale, kTimedSeed);
  const std::string path = TempPath("bm_load.evsnap");
  if (!version::SaveVersionSnapshot(vkb, vkb.head(), path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  size_t triples = 0;
  for (auto _ : state) {
    auto loaded = storage::LoadSnapshot(path);
    if (!loaded.ok()) {
      state.SkipWithError("load failed");
      break;
    }
    triples = loaded->store.size();
    benchmark::DoNotOptimize(triples);
  }
  state.counters["triples_per_s"] = benchmark::Counter(
      static_cast<double>(triples) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  std::remove(path.c_str());
}
BENCHMARK(BM_LoadSnapshot)->Unit(benchmark::kMillisecond);

// The pre-storage cold start: regenerate the whole workload from its
// seed (schema + instances + every transition + commit hashing).
void BM_RegenerateInMemory(benchmark::State& state) {
  for (auto _ : state) {
    version::VersionedKnowledgeBase vkb =
        Regenerate(kTimedScale, kTimedSeed);
    benchmark::DoNotOptimize(vkb.head());
  }
}
BENCHMARK(BM_RegenerateInMemory)->Unit(benchmark::kMillisecond);

// The storage-layer cold start: latest checkpoint + log tail replay,
// fingerprint chain verified. Must be >=5x faster than
// BM_RegenerateInMemory (E12's headline claim).
void BM_ColdStartFromDisk(benchmark::State& state) {
  const DurablePair pair = Persist(kTimedScale, kTimedSeed, "bm_cold");
  for (auto _ : state) {
    auto recovered = version::Recover(pair.checkpoint_dir, pair.log_path);
    if (!recovered.ok()) {
      state.SkipWithError("recovery failed");
      break;
    }
    benchmark::DoNotOptimize(recovered->vkb->head());
  }
  RemovePair(pair);
}
BENCHMARK(BM_ColdStartFromDisk)->Unit(benchmark::kMillisecond);

// Per-commit logging overhead: the write-ahead record append (no
// fsync vs fsync-on-commit).
void BM_LoggedCommit(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  version::VersionedKnowledgeBase vkb = Regenerate(kTimedScale, kTimedSeed);
  const std::string log_path = TempPath("bm_commit.evlog");
  std::remove(log_path.c_str());
  storage::LogOptions log_options;
  log_options.sync_on_append = sync;
  auto log = storage::CommitLog::Open(log_path, log_options);
  if (!log.ok()) {
    state.SkipWithError("log open failed");
    return;
  }
  // Pre-generate a pool of change sets (and intern their fresh terms)
  // so the loop times exactly commit + write-ahead append.
  std::vector<version::ChangeSet> pool;
  auto head = vkb.Snapshot(vkb.head());
  if (!head.ok()) {
    state.SkipWithError("workload failed");
    return;
  }
  for (uint32_t i = 0; i < 32; ++i) {
    workload::EvolutionOptions evolution_options;
    evolution_options.operations = 50;
    evolution_options.epoch = 100 + i;
    evolution_options.seed = kTimedSeed + 100 + i;
    pool.push_back(workload::GenerateEvolution(**head, vkb.dictionary(),
                                               evolution_options)
                       .changes);
  }
  vkb.AttachCommitLog(&*log);
  size_t next = 0;
  for (auto _ : state) {
    auto committed =
        vkb.Commit(pool[next++ % pool.size()], "bench", "logged commit");
    if (!committed.ok()) {
      state.SkipWithError("commit failed");
      break;
    }
    benchmark::DoNotOptimize(committed.ok());
  }
  std::remove(log_path.c_str());
}
BENCHMARK(BM_LoggedCommit)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"fsync"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintPersistenceTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

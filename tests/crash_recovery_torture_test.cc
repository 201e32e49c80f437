// Crash-point torture harness (the headline artifact of the
// robustness work): one deterministic multi-commit workload —
// checkpoint saves interleaved with WAL-synced commits — is replayed
// once per possible crash point k, cutting the power at the k-th
// mutating storage operation, rebooting, and running self-healing
// recovery. After every single cut the recovered history must be a
// prefix of the scripted one with its fingerprint chain intact, and
// every commit whose fsync was acknowledged must have survived.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

using storage::FaultInjectionEnv;
using storage::FaultPlan;

constexpr uint64_t kSeed = 20260807;
constexpr uint32_t kCommits = 6;
constexpr size_t kCheckpointEvery = 2;
constexpr size_t kKeep = 2;
constexpr char kCheckpointDir[] = "state/checkpoints";
constexpr char kLogPath[] = "state/wal.evlog";

rdf::KnowledgeBase MakeBase(uint64_t seed) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 16;
  schema_options.seed = seed;
  workload::GeneratedSchema generated = workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 60;
  instance_options.edge_count = 90;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  return std::move(generated.kb);
}

/// Everything one scripted run produced before it stopped (cleanly or
/// at a crash).
struct WorkloadTrace {
  /// fingerprints[v] — version v's chained fingerprint, v = 0..N.
  std::vector<uint64_t> fingerprints;
  /// Version ids whose Commit returned OK: with sync_on_append this is
  /// the fsync-acknowledged set, the commits durability promises.
  std::vector<version::VersionId> acked;
  bool completed = false;
};

/// The scripted workload: snapshot v0 as the initial checkpoint, open
/// a WAL with fsync-per-commit, then kCommits evolution commits with a
/// checkpoint every kCheckpointEvery. Stops at the first storage
/// failure (a crash makes every later operation fail too, so the
/// process is effectively dead from that point — exactly like a real
/// one).
WorkloadTrace RunWorkload(FaultInjectionEnv* env) {
  WorkloadTrace trace;
  version::VersionedKnowledgeBase vkb(MakeBase(kSeed));
  auto handle = vkb.Handle(0);
  if (!handle.ok()) return trace;
  trace.fingerprints.push_back(handle->fingerprint);

  storage::SnapshotOptions snap_options;
  snap_options.sync = true;
  snap_options.env = env;
  if (!version::SaveCheckpoint(vkb, 0, kCheckpointDir, kKeep, snap_options)
           .ok()) {
    return trace;
  }

  storage::LogOptions log_options;
  log_options.sync_on_append = true;
  log_options.retry.max_attempts = 2;  // a crash is not transient; keep
  log_options.retry.backoff_micros = 10;  // the death quick
  log_options.env = env;
  auto log = storage::CommitLog::Open(kLogPath, log_options);
  if (!log.ok()) return trace;
  vkb.AttachCommitLog(&*log);

  Rng rng(kSeed * 977 + 13);
  for (uint32_t v = 1; v <= kCommits; ++v) {
    auto head = vkb.Snapshot(vkb.head());
    if (!head.ok()) return trace;
    workload::EvolutionOptions options;
    options.operations = static_cast<size_t>(rng.UniformInt(10, 30));
    options.epoch = v;
    options.seed = kSeed + 10 + v;
    if (rng.Bernoulli(0.3)) options.mix = workload::ChangeMix::SchemaHeavy();
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb.dictionary(), options);
    auto committed = vkb.Commit(std::move(outcome.changes), "torture",
                                "step " + std::to_string(v),
                                1700000000 + v);
    if (!committed.ok()) return trace;
    trace.acked.push_back(*committed);
    auto fp = vkb.Handle(*committed);
    if (!fp.ok()) return trace;
    trace.fingerprints.push_back(fp->fingerprint);
    if (v % kCheckpointEvery == 0 &&
        !version::SaveCheckpoint(vkb, vkb.head(), kCheckpointDir, kKeep,
                                 snap_options)
             .ok()) {
      return trace;
    }
  }
  trace.completed = true;
  return trace;
}

Result<version::RecoveredKb> Recover(FaultInjectionEnv* env) {
  version::RecoveryOptions options;
  options.env = env;
  return version::RecoverFromCheckpoints(kCheckpointDir, kLogPath, options);
}

/// The recovered history must be a prefix of the scripted one: same
/// fingerprints position by position, ending at or before the script.
void ExpectScriptedPrefix(const version::RecoveredKb& recovered,
                          const std::vector<uint64_t>& scripted) {
  const version::VersionId base = recovered.base_version;
  const version::VersionId head = recovered.vkb->head();
  ASSERT_LT(base + head, scripted.size());
  for (version::VersionId j = 0; j <= head; ++j) {
    auto handle = recovered.vkb->Handle(j);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->fingerprint, scripted[base + j])
        << "recovered version " << j << " (original id " << base + j
        << ") diverges from the scripted history";
  }
}

TEST(CrashRecoveryTortureTest, EveryCrashPointRecoversToAnAckedPrefix) {
  // Clean reference run: learn the scripted fingerprint chain and the
  // total number of mutating operations T — the crash-point space.
  FaultInjectionEnv clean_env(kSeed);
  const WorkloadTrace script = RunWorkload(&clean_env);
  ASSERT_TRUE(script.completed);
  ASSERT_EQ(script.fingerprints.size(), kCommits + 1);
  const uint64_t total_ops = clean_env.counters().mutating_ops;
  ASSERT_GT(total_ops, 10u);

  // Sanity: the clean run itself recovers completely.
  auto full = Recover(&clean_env);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->base_version + full->vkb->head(), kCommits);
  ExpectScriptedPrefix(*full, script.fingerprints);

  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k));
    FaultInjectionEnv env(kSeed);
    FaultPlan plan;
    plan.crash_at_op = static_cast<int64_t>(k);
    plan.torn_tails = true;  // power loss tears, not truncates
    env.set_plan(plan);

    const WorkloadTrace trace = RunWorkload(&env);
    // trace.completed stays possible: a crash landing on best-effort
    // work (checkpoint pruning) doesn't fail the workload — but the
    // invariants below must hold regardless of where the cut landed.
    EXPECT_EQ(env.counters().crashes, 1u);
    env.Restart();
    env.ClearFaults();

    auto recovered = Recover(&env);
    if (!recovered.ok()) {
      // Legitimate only before anything was promised: no commit was
      // ever acknowledged (the very first checkpoint save never became
      // durable, so there is genuinely nothing to restore).
      EXPECT_TRUE(trace.acked.empty())
          << "recovery failed after commits were acknowledged: "
          << recovered.status().ToString();
      continue;
    }

    // Invariant 1+2: scripted prefix with intact fingerprint chain
    // (which also proves no torn record was replayed — a torn record
    // could not extend the chain).
    ExpectScriptedPrefix(*recovered, script.fingerprints);

    // Invariant 3: every fsync-acknowledged commit survived.
    const version::VersionId last =
        recovered->base_version + recovered->vkb->head();
    if (!trace.acked.empty()) {
      EXPECT_GE(last, trace.acked.back())
          << "an acknowledged commit was lost";
    }

    // Liveness: the recovered KB accepts new commits.
    auto head = recovered->vkb->Snapshot(recovered->vkb->head());
    ASSERT_TRUE(head.ok());
    workload::EvolutionOptions options;
    options.operations = 10;
    options.epoch = 99;
    options.seed = kSeed + 999;
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, recovered->vkb->dictionary(), options);
    EXPECT_TRUE(recovered->vkb
                    ->Commit(std::move(outcome.changes), "post", "resume")
                    .ok());
  }
}

TEST(CrashRecoveryTortureTest, CorruptCheckpointIsQuarantinedAndBypassed) {
  FaultInjectionEnv env(kSeed);
  const WorkloadTrace script = RunWorkload(&env);
  ASSERT_TRUE(script.completed);

  auto checkpoints = version::ListCheckpoints(kCheckpointDir, &env);
  ASSERT_TRUE(checkpoints.ok());
  ASSERT_GE(checkpoints->size(), 2u);  // keep=2: an older one to fall to
  const std::string newest = checkpoints->back();
  ASSERT_TRUE(env.CorruptFile(newest, 100).ok());  // bit rot

  auto recovered = Recover(&env);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // The rotten checkpoint was quarantined as evidence and recovery
  // paid a longer log replay from the older one — losing nothing.
  EXPECT_EQ(recovered->report.quarantined,
            std::vector<std::string>{newest});
  EXPECT_TRUE(env.FileExists(newest + ".corrupt"));
  EXPECT_FALSE(env.FileExists(newest));
  EXPECT_EQ(recovered->report.checkpoint_used,
            (*checkpoints)[checkpoints->size() - 2]);
  EXPECT_EQ(recovered->base_version + recovered->vkb->head(), kCommits);
  ExpectScriptedPrefix(*recovered, script.fingerprints);

  // The report narrates all of it for the operator.
  const std::string summary = recovered->report.ToString();
  EXPECT_NE(summary.find(".corrupt"), std::string::npos);
}

TEST(CrashRecoveryTortureTest, LyingFsyncForfeitsTheAcknowledgedCommit) {
  // A disk that acknowledges fsync without persisting defeats any
  // write-ahead log — this documents the boundary of the durability
  // contract: the commit acked over the lying sync is lost, but the
  // recovered history is still a clean, consistent prefix.
  FaultInjectionEnv env(kSeed);
  version::VersionedKnowledgeBase vkb(MakeBase(kSeed));
  storage::SnapshotOptions snap_options;
  snap_options.sync = true;
  snap_options.env = &env;
  ASSERT_TRUE(
      version::SaveCheckpoint(vkb, 0, kCheckpointDir, kKeep, snap_options)
          .ok());
  storage::LogOptions log_options;
  log_options.sync_on_append = true;
  log_options.env = &env;
  auto log = storage::CommitLog::Open(kLogPath, log_options);
  ASSERT_TRUE(log.ok());
  vkb.AttachCommitLog(&*log);

  Rng rng(kSeed);
  for (uint32_t v = 1; v <= 2; ++v) {
    if (v == 2) {
      FaultPlan plan;
      plan.lying_syncs = 1;  // the second commit's fsync is a lie
      env.set_plan(plan);
    }
    auto head = vkb.Snapshot(vkb.head());
    ASSERT_TRUE(head.ok());
    workload::EvolutionOptions options;
    options.operations = 12;
    options.epoch = v;
    options.seed = kSeed + v;
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb.dictionary(), options);
    ASSERT_TRUE(
        vkb.Commit(std::move(outcome.changes), "liar", "c").ok());
  }
  EXPECT_EQ(env.counters().lied_syncs, 1u);

  env.CrashNow();
  env.Restart();
  auto recovered = Recover(&env);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const version::VersionId last =
      recovered->base_version + recovered->vkb->head();
  EXPECT_EQ(last, 1u);  // commit 2 was acked yet lost — the lie's cost
  // What did survive is version 1, bit for bit on the original chain.
  auto expected = vkb.Handle(1);
  ASSERT_TRUE(expected.ok());
  auto recovered_v1 =
      recovered->vkb->Handle(1 - recovered->base_version);
  ASSERT_TRUE(recovered_v1.ok());
  EXPECT_EQ(recovered_v1->fingerprint, expected->fingerprint);
}

}  // namespace
}  // namespace evorec

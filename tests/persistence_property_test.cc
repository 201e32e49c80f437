// Round-trip differential properties of the storage layer: randomized
// commit interleavings are made durable (checkpoint + commit log),
// recovered from disk, and the recovered KB must be observationally
// byte-identical to the original — same Match results under every
// pattern shape, same triple counts, same N-Triples serialisation,
// and the same content fingerprints (so engine cache keys survive a
// restart, which the last test drives end to end).

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "evorec_persist_" + name;
}

void RemoveCheckpointDir(const std::string& dir) {
  auto checkpoints = version::ListCheckpoints(dir);
  if (checkpoints.ok()) {
    for (const std::string& path : *checkpoints) std::remove(path.c_str());
  }
  std::remove(dir.c_str());
}

// A checkpoint directory holding none of an earlier run's checkpoints,
// which recovery would otherwise prefer over this run's.
std::string FreshCheckpointDir(const std::string& name) {
  const std::string dir = TempPath(name);
  RemoveCheckpointDir(dir);
  return dir;
}

rdf::KnowledgeBase MakeBase(uint64_t seed) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 30;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 200;
  instance_options.edge_count = 350;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  return std::move(generated.kb);
}

// Commits `versions` randomized transitions (mix/ops vary per seed and
// step) against `vkb`.
void CommitHistory(version::VersionedKnowledgeBase& vkb, uint64_t seed,
                   uint32_t versions) {
  Rng rng(seed * 977 + 13);
  for (uint32_t v = 0; v < versions; ++v) {
    auto head = vkb.Snapshot(vkb.head());
    ASSERT_TRUE(head.ok());
    workload::EvolutionOptions options;
    options.operations =
        static_cast<size_t>(rng.UniformInt(20, 90));
    options.epoch = v + 1;
    options.seed = seed + 10 + v;
    if (rng.Bernoulli(0.3)) options.mix = workload::ChangeMix::SchemaHeavy();
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb.dictionary(), options);
    auto committed =
        vkb.Commit(std::move(outcome.changes), "prop-test",
                   "step " + std::to_string(v), 1700000000 + v);
    ASSERT_TRUE(committed.ok());
  }
}

// The eight pattern shapes instantiated from a concrete triple.
std::vector<rdf::TriplePattern> AllShapes(const rdf::Triple& t) {
  const rdf::TermId any = rdf::kAnyTerm;
  return {{t.subject, t.predicate, t.object},
          {t.subject, t.predicate, any},
          {t.subject, any, t.object},
          {any, t.predicate, t.object},
          {t.subject, any, any},
          {any, t.predicate, any},
          {any, any, t.object},
          {any, any, any}};
}

void ExpectVersionsIdentical(const version::VersionedKnowledgeBase& original,
                             version::VersionId v,
                             const version::VersionedKnowledgeBase& recovered,
                             version::VersionId rv) {
  auto original_handle = original.Handle(v);
  auto recovered_handle = recovered.Handle(rv);
  ASSERT_TRUE(original_handle.ok());
  ASSERT_TRUE(recovered_handle.ok());
  EXPECT_EQ(original_handle->fingerprint, recovered_handle->fingerprint)
      << "fingerprint of version " << v;

  auto original_snapshot = original.Snapshot(v);
  auto recovered_snapshot = recovered.Snapshot(rv);
  ASSERT_TRUE(original_snapshot.ok());
  ASSERT_TRUE(recovered_snapshot.ok());
  const rdf::TripleStore& original_store = (*original_snapshot)->store();
  const rdf::TripleStore& recovered_store = (*recovered_snapshot)->store();

  ASSERT_EQ(original_store.size(), recovered_store.size());
  EXPECT_EQ(original_store.Match(rdf::TriplePattern{}),
            recovered_store.Match(rdf::TriplePattern{}));
  // Byte-identical down to the term content, not just the ids.
  EXPECT_EQ(rdf::WriteNTriples(original_store,
                               (*original_snapshot)->dictionary()),
            rdf::WriteNTriples(recovered_store,
                               (*recovered_snapshot)->dictionary()));

  // All eight pattern shapes, probed at the first / middle / last
  // triple of the version (they exercise all three indexes).
  const std::vector<rdf::Triple> triples =
      original_store.Match(rdf::TriplePattern{});
  if (triples.empty()) return;
  for (size_t pick :
       {size_t{0}, triples.size() / 2, triples.size() - 1}) {
    for (const rdf::TriplePattern& pattern : AllShapes(triples[pick])) {
      EXPECT_EQ(original_store.Match(pattern), recovered_store.Match(pattern));
    }
  }
}

class PersistencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PersistencePropertyTest,
                         ::testing::Values(3, 17, 59, 211));

// Snapshot taken mid-history + log tail replay: the everyday recovery
// shape ("latest checkpoint + WAL tail").
TEST_P(PersistencePropertyTest, MidHistorySnapshotPlusTailReplay) {
  const uint64_t seed = GetParam();
  const std::string checkpoint_dir =
      FreshCheckpointDir("mid_" + std::to_string(seed) + ".ckpt");
  const std::string log_path =
      TempPath("mid_" + std::to_string(seed) + ".evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(MakeBase(seed));
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, seed, 6);
  const version::VersionId mid = original.head() - 2;
  ASSERT_TRUE(version::SaveCheckpoint(original, mid, checkpoint_dir).ok());
  ASSERT_TRUE(log->Sync().ok());

  auto recovered = version::Recover(checkpoint_dir, log_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->base_version, mid);
  EXPECT_EQ(recovered->report.skipped_records, static_cast<size_t>(mid));
  EXPECT_EQ(recovered->report.replayed_commits,
            static_cast<size_t>(original.head() - mid));
  ASSERT_EQ(recovered->vkb->head(), original.head() - mid);
  for (version::VersionId v = mid; v <= original.head(); ++v) {
    ExpectVersionsIdentical(original, v, *recovered->vkb, v - mid);
  }

  // The recovered KB keeps working: a fresh commit replays on top.
  auto head = recovered->vkb->Snapshot(recovered->vkb->head());
  ASSERT_TRUE(head.ok());
  workload::EvolutionOptions options;
  options.operations = 25;
  options.epoch = 99;
  options.seed = seed + 99;
  workload::EvolutionOutcome outcome = workload::GenerateEvolution(
      **head, recovered->vkb->dictionary(), options);
  EXPECT_TRUE(recovered->vkb
                  ->Commit(std::move(outcome.changes), "post", "resume")
                  .ok());

  RemoveCheckpointDir(checkpoint_dir);
  std::remove(log_path.c_str());
}

// Base snapshot + full log replay reproduces the complete fingerprint
// chain.
TEST_P(PersistencePropertyTest, FullLogReplayRestoresEveryFingerprint) {
  const uint64_t seed = GetParam();
  const std::string checkpoint_dir =
      FreshCheckpointDir("full_" + std::to_string(seed) + ".ckpt");
  const std::string log_path =
      TempPath("full_" + std::to_string(seed) + ".evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(MakeBase(seed));
  ASSERT_TRUE(version::SaveCheckpoint(original, 0, checkpoint_dir).ok());
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, seed, 5);
  ASSERT_TRUE(log->Sync().ok());

  auto recovered = version::Recover(checkpoint_dir, log_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->base_version, 0u);
  ASSERT_EQ(recovered->vkb->version_count(), original.version_count());
  for (version::VersionId v = 0; v <= original.head(); ++v) {
    ExpectVersionsIdentical(original, v, *recovered->vkb, v);
  }
  RemoveCheckpointDir(checkpoint_dir);
  std::remove(log_path.c_str());
}

// A torn final record (half-written commit) rolls back to the last
// complete commit instead of failing recovery.
TEST_P(PersistencePropertyTest, TornTailRecoversPrefix) {
  const uint64_t seed = GetParam();
  const std::string checkpoint_dir =
      FreshCheckpointDir("torn_" + std::to_string(seed) + ".ckpt");
  const std::string log_path =
      TempPath("torn_" + std::to_string(seed) + ".evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(MakeBase(seed));
  ASSERT_TRUE(version::SaveCheckpoint(original, 0, checkpoint_dir).ok());
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, seed, 4);
  ASSERT_TRUE(log->Close().ok());

  // Tear the last record in half.
  auto bytes = ReadFileToString(log_path);
  ASSERT_TRUE(bytes.ok());
  auto records = storage::ReadLog(log_path);
  ASSERT_TRUE(records.ok());
  const std::string last_record =
      storage::EncodeDeltaRecord(records->back());
  const std::string torn =
      bytes->substr(0, bytes->size() - last_record.size() / 2);
  ASSERT_TRUE(WriteFileAtomic(log_path, torn).ok());

  auto recovered = version::Recover(checkpoint_dir, log_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->vkb->head(), original.head() - 1);
  for (version::VersionId v = 0; v < original.head(); ++v) {
    ExpectVersionsIdentical(original, v, *recovered->vkb, v);
  }

  // Strict mode still refuses the same file. A corrupt log is no
  // checkpoint's fault, so the healthy checkpoint stays in place.
  version::RecoveryOptions strict;
  strict.allow_torn_tail = false;
  auto refused = version::Recover(checkpoint_dir, log_path, strict);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  auto kept = version::ListCheckpoints(checkpoint_dir);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->size(), 1u);

  RemoveCheckpointDir(checkpoint_dir);
  std::remove(log_path.c_str());
}

// Mixing a checkpoint and a log from different histories must fail
// with a clean error, never produce a silently wrong KB. The foreign
// checkpoint is quarantined (renamed to `.corrupt`), not left for the
// next start to trip over.
TEST(PersistenceMismatchTest, ForeignLogIsRejected) {
  const std::string checkpoint_dir = FreshCheckpointDir("mismatch.ckpt");
  const std::string log_path = TempPath("mismatch.evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase history_a(MakeBase(71));
  ASSERT_TRUE(version::SaveCheckpoint(history_a, 0, checkpoint_dir).ok());

  version::VersionedKnowledgeBase history_b(MakeBase(72));
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  history_b.AttachCommitLog(&*log);
  CommitHistory(history_b, 72, 3);
  ASSERT_TRUE(log->Close().ok());

  auto recovered = version::Recover(checkpoint_dir, log_path);
  EXPECT_FALSE(recovered.ok());
  const std::string quarantined =
      version::CheckpointPath(checkpoint_dir, 0) + ".corrupt";
  EXPECT_TRUE(Env::Default()->FileExists(quarantined));
  auto left = version::ListCheckpoints(checkpoint_dir);
  ASSERT_TRUE(left.ok());
  EXPECT_TRUE(left->empty());
  std::remove(quarantined.c_str());

  RemoveCheckpointDir(checkpoint_dir);
  std::remove(log_path.c_str());
}

// Checkpointing or exporting a version reads it with a transient
// merged scan: neither may leave a flat copy of a multi-segment store
// pinned on the version for the KB's lifetime.
TEST(PersistenceFootprintTest, SaveAndExportLeaveStorageBytesUnchanged) {
  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.instances = 200;
  scale.edges = 300;
  scale.versions = 3;
  scale.operations = 80;
  const workload::Scenario scenario = workload::MakeDbpediaLike(7, scale);
  const version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  const version::VersionId head = vkb.head();
  auto head_kb = vkb.Snapshot(head);
  auto previous_kb = vkb.Snapshot(head - 1);
  ASSERT_TRUE(head_kb.ok());
  ASSERT_TRUE(previous_kb.ok());
  ASSERT_GE((*head_kb)->store().segments().size(), 2u);
  ASSERT_GE((*previous_kb)->store().segments().size(), 2u);

  const size_t before = vkb.StorageBytes();
  const std::string checkpoint_dir = FreshCheckpointDir("footprint.ckpt");
  ASSERT_TRUE(version::SaveCheckpoint(vkb, head, checkpoint_dir).ok());
  EXPECT_EQ(vkb.StorageBytes(), before) << "after SaveCheckpoint";
  const std::string text = rdf::WriteNTriples((*previous_kb)->store(),
                                              (*previous_kb)->dictionary());
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(vkb.StorageBytes(), before) << "after WriteNTriples";
  RemoveCheckpointDir(checkpoint_dir);
}

// The whole point of restoring fingerprints: an engine serving the
// original KB treats the recovered KB as the same cache key — the
// first post-restart request is a hit, not a rebuild.
TEST(PersistenceEngineTest, RecoveredKbHitsTheWarmEngineCache) {
  const std::string checkpoint_dir = FreshCheckpointDir("engine.ckpt");
  const std::string log_path = TempPath("engine.evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(MakeBase(5));
  ASSERT_TRUE(version::SaveCheckpoint(original, 0, checkpoint_dir).ok());
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, 5, 3);
  ASSERT_TRUE(log->Sync().ok());

  auto recovered = version::Recover(checkpoint_dir, log_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  engine::RecommendationService service(registry);
  const version::VersionId head = original.head();
  ASSERT_TRUE(service.WarmStart(original, head - 1, head).ok());
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);

  // Same versions, recovered instance: cache hit, no rebuild.
  ASSERT_TRUE(
      service.WarmStart(*recovered->vkb, head - 1, head).ok());
  const engine::EngineStats stats = service.engine_stats();
  EXPECT_EQ(stats.contexts_built, 1u);
  EXPECT_GE(stats.context_hits, 1u);

  // And the recommendations themselves are identical.
  profile::HumanProfile user_a("restart-user");
  profile::HumanProfile user_b("restart-user");
  auto head_kb = original.Snapshot(head);
  ASSERT_TRUE(head_kb.ok());
  const schema::SchemaView view = schema::SchemaView::Build(**head_kb);
  if (!view.classes().empty()) {
    user_a.SetInterest(view.classes()[0], 1.0);
    user_b.SetInterest(view.classes()[0], 1.0);
  }
  auto list_a = service.Recommend(original, head - 1, head, user_a);
  auto list_b =
      service.Recommend(*recovered->vkb, head - 1, head, user_b);
  ASSERT_TRUE(list_a.ok());
  ASSERT_TRUE(list_b.ok());
  ASSERT_EQ(list_a->items.size(), list_b->items.size());
  for (size_t i = 0; i < list_a->items.size(); ++i) {
    EXPECT_EQ(list_a->items[i].candidate.id, list_b->items[i].candidate.id);
    EXPECT_DOUBLE_EQ(list_a->items[i].relatedness,
                     list_b->items[i].relatedness);
  }

  RemoveCheckpointDir(checkpoint_dir);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace evorec

// Deterministic replay of production-shaped event streams (E16's
// correctness side): every StreamGenerator mode drives a
// RecommendationService over a ShardedKnowledgeBase with reads racing
// the commits, and the stressed run must be byte-identical to a
// sequential single-store oracle replay of the same stream — zero
// whole-store flat copies, zero degraded serves without injected
// faults, refresh work proportional to the deltas, and a fingerprint
// chain that is reproducible replica-to-replica. The `tsan` preset
// races these suites under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

using engine::HealthState;
using engine::IncrementalStats;
using engine::RecommendationService;
using engine::ServiceOptions;
using version::ShardedKnowledgeBase;
using version::VersionId;
using workload::StreamEvent;
using workload::StreamMode;
using workload::WorkloadStream;

workload::Scenario SmallScenario(uint64_t seed) {
  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.properties = 12;
  scale.instances = 200;
  scale.edges = 400;
  scale.versions = 2;
  scale.operations = 80;
  return workload::MakeDbpediaLike(seed, scale);
}

workload::StreamOptions SmallStreamOptions(StreamMode mode) {
  workload::StreamOptions options;
  options.mode = mode;
  options.reads = 36;
  options.commits = 6;
  options.population = 12;
  options.ops_per_commit = 8;
  options.burst_on = 3;
  options.burst_off = 12;
  options.flap_block = 6;
  options.seed = 1700 + static_cast<uint64_t>(mode);
  return options;
}

// Rebuilds the scenario's committed history as a sharded KB (adopting
// the scenario dictionary — same content, same TermIds).
std::unique_ptr<ShardedKnowledgeBase> ShardScenario(
    const workload::Scenario& scenario, size_t shards) {
  auto base = scenario.vkb->Snapshot(0);
  EXPECT_TRUE(base.ok());
  auto sharded = std::make_unique<ShardedKnowledgeBase>(
      ShardedKnowledgeBase::Options{.shards = shards}, **base);
  for (VersionId v = 1; v <= scenario.vkb->head(); ++v) {
    auto cs = scenario.vkb->Changes(v);
    EXPECT_TRUE(cs.ok());
    auto committed = sharded->Commit(std::move(cs).value(), "replay",
                                     "v" + std::to_string(v), v);
    EXPECT_TRUE(committed.ok());
  }
  return sharded;
}

// Canonical byte representation of one served result: package ids,
// full-precision scores, explanation text, quality diagnostics and the
// degraded flag. Two replays are "byte-identical" iff these strings
// match read for read.
std::string Canon(const recommend::RecommendationList& list) {
  std::ostringstream os;
  os.precision(17);
  os << "deg=" << list.degraded << ";div=" << list.set_diversity
     << ";cov=" << list.category_coverage
     << ";pool=" << list.candidate_pool_size << ";";
  for (const recommend::RecommendationItem& item : list.items) {
    os << item.candidate.id << ":" << item.relatedness << ":" << item.novelty
       << ":" << item.explanation.ToText() << "|";
  }
  return os.str();
}

struct ReplayOutput {
  /// Indexed by stream event index; empty strings at commit slots.
  std::vector<std::string> reads;
  std::vector<uint64_t> chain;
  size_t degraded_reads = 0;
  size_t failures = 0;
  IncrementalStats inc;
  engine::ServiceHealth health;
};

ServiceOptions ReplayServiceOptions(bool parallel, size_t threads) {
  ServiceOptions options;
  options.parallel_batches = parallel;
  options.engine.threads = threads;
  // The same user appears in many in-flight reads; delivery
  // bookkeeping would make output depend on serve order.
  options.recommender.record_seen = false;
  return options;
}

// The oracle: every event applied in stream order on the single-store
// scenario KB, one request at a time.
ReplayOutput ReplaySequentialOracle(workload::Scenario& scenario,
                                    const WorkloadStream& stream) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, ReplayServiceOptions(false, 1));
  ReplayOutput out;
  out.reads.resize(stream.events.size());
  size_t commit_index = 0;
  for (size_t i = 0; i < stream.events.size(); ++i) {
    const StreamEvent& event = stream.events[i];
    if (event.kind == StreamEvent::Kind::kRead) {
      profile::HumanProfile prof = stream.users[event.user];
      auto list =
          service.Recommend(*scenario.vkb, event.before, event.after, prof);
      if (!list.ok()) {
        ++out.failures;
        continue;
      }
      out.reads[i] = Canon(*list);
      if (list->degraded) ++out.degraded_reads;
    } else {
      version::ChangeSet copy = event.changes;
      auto id = service.Commit(*scenario.vkb, std::move(copy), "stream",
                               "c" + std::to_string(commit_index++),
                               event.timestamp_us);
      if (!id.ok()) ++out.failures;
    }
  }
  for (VersionId v = 0; v <= scenario.vkb->head(); ++v) {
    out.chain.push_back(scenario.vkb->Handle(v).value().fingerprint);
  }
  out.inc = service.engine().incremental_stats();
  out.health = service.health();
  return out;
}

struct PendingRead {
  size_t event_index = 0;
  size_t user = 0;
  VersionId before = 0;
  VersionId after = 0;
};

// The stressed run: reads buffered since the last commit are served as
// sharded batch fan-out on a reader thread *while* the next commit
// lands on this thread — the contract is that racing changes nothing.
ReplayOutput ReplayStressedSharded(const WorkloadStream& stream,
                                   ShardedKnowledgeBase& sharded,
                                   size_t threads) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, ReplayServiceOptions(true, threads));
  ReplayOutput out;
  out.reads.resize(stream.events.size());
  std::atomic<size_t> failures{0};
  std::atomic<size_t> degraded{0};

  std::vector<PendingRead> pending;
  auto serve_pending = [&](const std::vector<PendingRead>& reads) {
    // Sub-batch by version pair (RecommendBatch serves one pair);
    // per-read output is order-independent because every read gets a
    // fresh profile copy and record_seen is off.
    std::map<std::pair<VersionId, VersionId>, std::vector<size_t>> groups;
    for (size_t k = 0; k < reads.size(); ++k) {
      groups[{reads[k].before, reads[k].after}].push_back(k);
    }
    for (const auto& [pair, indices] : groups) {
      std::vector<profile::HumanProfile> profiles;
      profiles.reserve(indices.size());
      for (size_t k : indices) profiles.push_back(stream.users[reads[k].user]);
      std::vector<profile::HumanProfile*> pointers;
      pointers.reserve(profiles.size());
      for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);
      auto batch =
          service.RecommendBatch(sharded, pair.first, pair.second, pointers);
      if (!batch.ok()) {
        failures.fetch_add(indices.size());
        continue;
      }
      for (size_t j = 0; j < indices.size(); ++j) {
        out.reads[reads[indices[j]].event_index] = Canon((*batch)[j]);
        if ((*batch)[j].degraded) degraded.fetch_add(1);
      }
    }
  };

  size_t commit_index = 0;
  for (size_t i = 0; i < stream.events.size(); ++i) {
    const StreamEvent& event = stream.events[i];
    if (event.kind == StreamEvent::Kind::kRead) {
      pending.push_back({i, event.user, event.before, event.after});
      continue;
    }
    std::vector<PendingRead> flushed;
    flushed.swap(pending);
    std::thread server([&] { serve_pending(flushed); });
    version::ChangeSet copy = event.changes;
    auto id = service.Commit(sharded, std::move(copy), "stream",
                             "c" + std::to_string(commit_index++),
                             event.timestamp_us);
    if (!id.ok()) failures.fetch_add(1);
    server.join();
  }
  serve_pending(pending);

  for (VersionId v = 0; v <= sharded.head(); ++v) {
    out.chain.push_back(sharded.Handle(v).value().fingerprint);
  }
  out.degraded_reads = degraded.load();
  out.failures = failures.load();
  out.inc = service.engine().incremental_stats();
  out.health = service.health();
  return out;
}

// The serving read diet over every pinned union snapshot; the
// whole-store flat-copy counter must still read zero afterwards.
uint64_t ProbeFlatCopies(const ShardedKnowledgeBase& sharded) {
  uint64_t flat = 0;
  for (VersionId v = 0; v <= sharded.head(); ++v) {
    auto snapshot = sharded.SharedSnapshot(v);
    if (!snapshot.ok()) return ~0ull;
    const rdf::TripleStore& store = (*snapshot)->store();
    (void)store.Contains({0, 0, 0});
    (void)store.Match({1, rdf::kAnyTerm, rdf::kAnyTerm});
    size_t n = 0;
    store.ScanT({rdf::kAnyTerm, rdf::kAnyTerm, rdf::kAnyTerm},
                [&](const rdf::Triple&) {
                  ++n;
                  return true;
                });
    flat += store.stats().materializations;
  }
  return flat;
}

class ScenarioReplayTest : public ::testing::TestWithParam<StreamMode> {};

TEST_P(ScenarioReplayTest, StressedShardedReplayMatchesSequentialOracle) {
  const StreamMode mode = GetParam();
  workload::Scenario scenario =
      SmallScenario(101 + static_cast<uint64_t>(mode));
  WorkloadStream stream =
      workload::GenerateStream(scenario, SmallStreamOptions(mode));
  ASSERT_EQ(stream.commit_count, 6u);
  ASSERT_EQ(stream.read_count, 36u);
  ASSERT_GT(stream.change_triples, 0u);

  // Shard replica A races reads against commits; replica B lands the
  // same commits with no readers at all. Both before the oracle replay
  // mutates the scenario's single-store KB.
  std::unique_ptr<ShardedKnowledgeBase> sharded = ShardScenario(scenario, 4);
  std::unique_ptr<ShardedKnowledgeBase> quiet = ShardScenario(scenario, 4);

  ReplayOutput stressed = ReplayStressedSharded(stream, *sharded, 4);
  EXPECT_EQ(stressed.failures, 0u);

  for (const StreamEvent& event : stream.events) {
    if (event.kind != StreamEvent::Kind::kCommit) continue;
    version::ChangeSet copy = event.changes;
    auto id = quiet->Commit(std::move(copy), "quiet", "c", event.timestamp_us);
    ASSERT_TRUE(id.ok());
  }

  ReplayOutput oracle = ReplaySequentialOracle(scenario, stream);
  EXPECT_EQ(oracle.failures, 0u);

  // Byte-identity with the oracle, read for read.
  ASSERT_EQ(stressed.reads.size(), oracle.reads.size());
  for (size_t i = 0; i < oracle.reads.size(); ++i) {
    EXPECT_EQ(stressed.reads[i], oracle.reads[i]) << "event " << i;
  }

  // DEGRADED only when faults are injected — and none were.
  EXPECT_EQ(stressed.degraded_reads, 0u);
  EXPECT_EQ(oracle.degraded_reads, 0u);
  EXPECT_EQ(stressed.health.state, HealthState::kHealthy);
  EXPECT_EQ(stressed.health.failed_commits, 0u);
  EXPECT_EQ(stressed.health.degraded_serves, 0u);

  // Every stream commit landed; reads never forced a flat copy of any
  // pinned union snapshot.
  EXPECT_EQ(sharded->head(), stream.base_head + stream.commit_count);
  EXPECT_EQ(ProbeFlatCopies(*sharded), 0u);

  // Fingerprint chain intact at stream end: the racing replica's chain
  // equals the read-free replica's chain link for link, and every link
  // differs from its predecessor (each commit changed content).
  ASSERT_EQ(stressed.chain.size(),
            static_cast<size_t>(stream.base_head + stream.commit_count + 1));
  std::vector<uint64_t> quiet_chain;
  for (VersionId v = 0; v <= quiet->head(); ++v) {
    quiet_chain.push_back(quiet->Handle(v).value().fingerprint);
  }
  EXPECT_EQ(stressed.chain, quiet_chain);
  for (size_t v = 1; v < stressed.chain.size(); ++v) {
    EXPECT_NE(stressed.chain[v], stressed.chain[v - 1]) << "version " << v;
  }

  // Refresh work proportional to the deltas: one engine refresh per
  // commit, never more recomputed sources than the cumulative graph.
  EXPECT_EQ(stressed.inc.refreshes, stream.commit_count);
  EXPECT_LE(stressed.inc.recomputed_sources, stressed.inc.total_sources);
  EXPECT_EQ(stressed.inc.refreshes,
            stressed.inc.advanced + stressed.inc.full_recomputes +
                stressed.inc.stayed_lazy);
  if (mode == StreamMode::kSchemaShockwave) {
    // Mass reparents churn the class universe: the full-frontier
    // fallback must fire at least once.
    EXPECT_GE(stressed.inc.full_recomputes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStreamModes, ScenarioReplayTest,
                         ::testing::Values(StreamMode::kBurstyCommits,
                                           StreamMode::kZipfReads,
                                           StreamMode::kAdversarialChurn,
                                           StreamMode::kSchemaShockwave),
                         [](const auto& param_info) {
                           std::string name =
                               workload::StreamModeName(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// DEGRADED appears exactly inside an injected fault window: the same
// stream replayed on a single-store KB whose WAL sits on a
// FaultInjectionEnv. One mid-stream commit fails (write-ahead: history
// untouched), every read until the retry lands is flagged, and the
// retry is the recovery edge.
TEST(ScenarioReplayFaultTest, DegradedExactlyDuringInjectedFaultWindow) {
  workload::Scenario scenario = SmallScenario(211);
  workload::StreamOptions options = SmallStreamOptions(StreamMode::kZipfReads);
  options.historical_fraction = 0.0;  // every read asks for the head pair
  WorkloadStream stream = workload::GenerateStream(scenario, options);

  storage::FaultInjectionEnv env;
  storage::LogOptions log_options;
  log_options.sync_on_append = true;
  log_options.retry.max_attempts = 2;
  log_options.retry.backoff_micros = 10;
  log_options.env = &env;
  auto opened =
      storage::CommitLog::Open("scenario_replay_wal.evlog", log_options);
  ASSERT_TRUE(opened.ok());
  storage::CommitLog log = std::move(*opened);
  scenario.vkb->AttachCommitLog(&log);

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, ReplayServiceOptions(false, 1));

  constexpr size_t kFailAt = 2;
  size_t commits_seen = 0;
  size_t degraded_observed = 0;
  std::optional<version::ChangeSet> backlog;
  auto land = [&](version::ChangeSet changes, uint64_t ts) {
    auto id =
        service.Commit(*scenario.vkb, std::move(changes), "stream", "c", ts);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  };
  for (const StreamEvent& event : stream.events) {
    if (event.kind == StreamEvent::Kind::kRead) {
      profile::HumanProfile prof = stream.users[event.user];
      auto list =
          service.Recommend(*scenario.vkb, event.before, event.after, prof);
      ASSERT_TRUE(list.ok()) << list.status().ToString();
      EXPECT_EQ(list->degraded, backlog.has_value());
      if (list->degraded) ++degraded_observed;
      continue;
    }
    if (commits_seen == kFailAt) {
      storage::FaultPlan plan;
      plan.fail_writes = 100;  // outlasts the retry budget
      env.set_plan(plan);
      version::ChangeSet copy = event.changes;
      auto failed = service.Commit(*scenario.vkb, std::move(copy), "stream",
                                   "c", event.timestamp_us);
      EXPECT_FALSE(failed.ok());
      EXPECT_EQ(service.health_state(), HealthState::kDegraded);
      backlog = event.changes;
    } else {
      if (backlog.has_value()) {
        // The disk heals: retry the failed commit first so version ids
        // realign with the stream, then land this one.
        env.ClearFaults();
        land(std::move(*backlog), event.timestamp_us);
        backlog.reset();
        EXPECT_EQ(service.health_state(), HealthState::kHealthy);
      }
      land(event.changes, event.timestamp_us);
    }
    ++commits_seen;
  }
  if (backlog.has_value()) {
    env.ClearFaults();
    land(std::move(*backlog), 0);
    backlog.reset();
  }

  EXPECT_GT(degraded_observed, 0u);
  EXPECT_EQ(scenario.vkb->head(), stream.base_head + stream.commit_count);
  engine::ServiceHealth health = service.health();
  EXPECT_EQ(health.state, HealthState::kHealthy);
  EXPECT_EQ(health.failed_commits, 1u);
  EXPECT_EQ(health.recoveries, 1u);
  EXPECT_EQ(health.degraded_serves, degraded_observed);
}

}  // namespace
}  // namespace evorec

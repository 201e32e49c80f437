#ifndef EVOREC_PERFBENCH_FIXTURE_H_
#define EVOREC_PERFBENCH_FIXTURE_H_

// Workload definitions and their set-up: the seeded scenario and
// stream, the 4-shard serving KB and the warm RecommendationService.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "evorec.h"
#include "version/sharded_kb.h"

namespace evorec::perfbench {

enum class WorkloadKind { kHotReads, kLiveFeed, kHistoryScan };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  /// Transitions committed after the scenario's base version.
  size_t history;
  /// Stream mode the commit payloads (and hot_reads' user picks) come
  /// from.
  workload::StreamMode mode;
  size_t population;
  /// Commits generated up front (see CommitPayload).
  size_t commit_pool;
  /// Closed-loop reader clients (0: live_feed's single client).
  size_t readers;
  /// Period of the open-loop committer beside the readers (unused by
  /// live_feed, whose client commits in its closed loop).
  uint64_t commit_period_us;
};

/// The three workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// What the seed generated, as recorded in the output.
struct InputSummary {
  size_t versions = 0;
  size_t triples = 0;  ///< head snapshot of the serving KB
  size_t commits = 0;  ///< size of the commit pool
  size_t change_triples = 0;  ///< total |delta| across the pool
  size_t population = 0;
};

/// One (user, v1) read pick of history_scan.
struct HistoryPick {
  uint32_t user = 0;
  version::VersionId before = 0;
};

struct Fixture {
  const WorkloadSpec* spec = nullptr;
  measures::MeasureRegistry registry;
  /// The scenario's unsharded VersionedKnowledgeBase is the oracle's
  /// KB; the serving KB below replays its history.
  workload::Scenario scenario;
  workload::WorkloadStream stream;
  std::vector<const version::ChangeSet*> commits;
  /// hot_reads: Zipf-skewed user picks of the stream's read events.
  std::vector<size_t> zipf_picks;
  /// history_scan: uniform (user, adjacent pair) picks.
  std::vector<HistoryPick> history_picks;
  std::unique_ptr<version::ShardedKnowledgeBase> kb;
  std::unique_ptr<engine::RecommendationService> service;
  version::VersionId base_head = 0;
  InputSummary inputs;

  // Run state carried across the phases of one run.
  std::atomic<version::VersionId> acked_head{0};
  size_t next_commit = 0;
  std::atomic<uint64_t> next_pick{0};
};

/// Serving configuration: 4 engine threads, parallel batches, admission
/// control on with limits no workload reaches (it runs on every request
/// but never sheds).
engine::ServiceOptions ServingOptions();

/// The sequential oracle's configuration: same recommender, one engine
/// thread, sequential batches, no admission control.
engine::ServiceOptions OracleOptions();

/// Payload of a run's j-th commit. The generated pool is replayed
/// forwards, then undone newest-first (each commit's inverse swaps its
/// additions and removals), then forwards again, so every payload is
/// state-consistent and a run never runs out of commits.
version::ChangeSet CommitPayload(const Fixture& fx, size_t j);

/// Generates everything from `seed`, shards the KB and warm-starts the
/// service on (head-1, head).
Result<std::unique_ptr<Fixture>> SetUp(const WorkloadSpec& spec,
                                       uint64_t seed);

}  // namespace evorec::perfbench

#endif  // EVOREC_PERFBENCH_FIXTURE_H_

#ifndef EVOREC_PERFBENCH_ORACLE_H_
#define EVOREC_PERFBENCH_ORACLE_H_

// The correctness gate: a digest of every served list, keyed by
// (user, v1, v2), checked after each segment against single-threaded
// services over unsharded VersionedKnowledgeBases with the same
// commits.

#include <cstdint>
#include <string>
#include <vector>

#include "fixture.h"

namespace evorec::perfbench {

/// Content digest of a served list: every item's candidate, report
/// scores, relatedness/novelty bits and explanation, plus the list-level
/// diagnostics and flags.
uint64_t Digest(const recommend::RecommendationList& list);

/// One served list. Every workload reads adjacent pairs, so the pair
/// is (after - 1, after).
struct ServedRecord {
  uint32_t user = 0;
  version::VersionId after = 0;
  uint64_t digest = 0;
};

/// The served lists of a run, deduplicated by key as they arrive so the
/// log stays the size of the key set, not of the request count. A key
/// served twice with different digests is a conflict.
class ServedLog {
 public:
  void Add(const ServedRecord& record) {
    records_.push_back(record);
    if (records_.size() >= next_compaction_) Compact();
  }
  void Merge(ServedLog&& other);
  /// Sorts by (after, user) and drops duplicate keys.
  void Compact();

  const std::vector<ServedRecord>& records() const { return records_; }
  size_t conflicts() const { return conflicts_; }

 private:
  std::vector<ServedRecord> records_;
  size_t next_compaction_ = 1 << 16;
  size_t conflicts_ = 0;
};

struct OracleResult {
  size_t keys = 0;        ///< distinct (user, v1, v2) checked
  size_t conflicts = 0;   ///< one key served with two different digests
  size_t mismatches = 0;  ///< keys whose digest differs from the oracle
  std::string error;      ///< oracle could not run (counts as failure)

  bool ok() const {
    return error.empty() && conflicts == 0 && mismatches == 0;
  }
};

/// Compares every served key with a sequential oracle: a
/// single-threaded service (OracleOptions) over an unsharded
/// VersionedKnowledgeBase with the scenario's history plus the commits
/// the run landed (fx.next_commit of them, in order). The oracle builds
/// every pair cold, so incrementally refreshed serves are checked
/// against a from-scratch evaluation. The version pairs are split
/// across four such oracles, each with its own KB replica, running side
/// by side.
OracleResult CheckAgainstOracle(const Fixture& fx, ServedLog log);

}  // namespace evorec::perfbench

#endif  // EVOREC_PERFBENCH_ORACLE_H_

#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>

namespace evorec::perfbench {
namespace {

class Hasher {
 public:
  void Add(uint64_t v) {
    h_ = (h_ ^ v) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 29;
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      uint64_t word;
      std::memcpy(&word, s.data() + i, 8);
      Add(word);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, s.data() + i, s.size() - i);
    Add(tail);
  }
  void Add(const std::vector<std::string>& v) {
    Add(static_cast<uint64_t>(v.size()));
    for (const std::string& s : v) Add(s);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace

uint64_t Digest(const recommend::RecommendationList& list) {
  Hasher h;
  h.Add(static_cast<uint64_t>(list.items.size()));
  for (const recommend::RecommendationItem& item : list.items) {
    const recommend::MeasureCandidate& c = item.candidate;
    h.Add(c.id);
    h.Add(c.measure.name);
    h.Add(static_cast<uint64_t>(c.focus));
    h.Add(c.region_label);
    h.Add(static_cast<uint64_t>(c.report.size()));
    for (const measures::ScoredTerm& t : c.report.scores()) {
      h.Add(static_cast<uint64_t>(t.term));
      h.Add(t.score);
    }
    for (rdf::TermId t : c.top_terms) h.Add(static_cast<uint64_t>(t));
    h.Add(item.relatedness);
    h.Add(item.novelty);
    const recommend::Explanation& e = item.explanation;
    h.Add(e.candidate_id);
    h.Add(e.measure_name);
    h.Add(e.measure_description);
    h.Add(e.category);
    h.Add(e.region_label);
    h.Add(e.top_affected);
    h.Add(e.matched_interests);
    h.Add(e.relatedness);
    h.Add(e.novelty);
  }
  h.Add(list.set_diversity);
  h.Add(list.category_coverage);
  h.Add(static_cast<uint64_t>(list.candidate_pool_size));
  h.Add(static_cast<uint64_t>(list.redacted_terms));
  h.Add(static_cast<uint64_t>(list.dropped_candidates));
  h.Add(static_cast<uint64_t>(list.degraded) * 2 + list.brownout);
  return h.value();
}

void ServedLog::Merge(ServedLog&& other) {
  conflicts_ += other.conflicts_;
  records_.insert(records_.end(), other.records_.begin(),
                  other.records_.end());
  other.records_.clear();
  Compact();
}

void ServedLog::Compact() {
  std::sort(records_.begin(), records_.end(),
            [](const ServedRecord& a, const ServedRecord& b) {
              return std::tie(a.after, a.user) < std::tie(b.after, b.user);
            });
  size_t kept = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (kept > 0 && records_[kept - 1].after == records_[i].after &&
        records_[kept - 1].user == records_[i].user) {
      if (records_[kept - 1].digest != records_[i].digest) ++conflicts_;
      continue;
    }
    records_[kept++] = records_[i];
  }
  records_.resize(kept);
  next_compaction_ = std::max<size_t>(1 << 16, 2 * kept);
}

namespace {

// Independent single-threaded oracles the key set is split across.
constexpr size_t kOracleReplicas = 4;

// An unsharded copy of the scenario's history (version 0 plus its
// archived change sets) sharing the scenario's dictionary.
Result<version::VersionedKnowledgeBase> Replica(const Fixture& fx) {
  const version::VersionedKnowledgeBase& vkb = *fx.scenario.vkb;
  auto base = vkb.Snapshot(0);
  if (!base.ok()) return base.status();
  version::VersionedKnowledgeBase replica(
      version::ArchivePolicy::kFullMaterialization, **base);
  for (version::VersionId v = 1; v <= fx.base_head; ++v) {
    auto changes = vkb.Changes(v);
    if (!changes.ok()) return changes.status();
    auto id = replica.Commit(std::move(changes).value(), "replay", "history",
                             v);
    if (!id.ok()) return id.status();
  }
  return replica;
}

// One oracle: serves every `stride`-th pair group of `keys` (groups are
// runs of one `after` version) through a sequential service over its
// own replica, advanced by the run's commits in order, and counts
// digests that differ from the served ones.
void CheckShare(const Fixture& fx, version::VersionedKnowledgeBase& replica,
                const std::vector<ServedRecord>& keys,
                const std::vector<size_t>& group_starts, size_t share,
                size_t stride, OracleResult* out) {
  engine::RecommendationService oracle(fx.registry, OracleOptions());
  for (size_t g = share; g + 1 < group_starts.size(); g += stride) {
    const size_t begin = group_starts[g];
    const size_t end = group_starts[g + 1];
    const version::VersionId after = keys[begin].after;
    while (replica.head() < after) {
      const size_t j = replica.head() - fx.base_head;
      if (j >= fx.next_commit) {
        out->error = "served a version the run never committed";
        return;
      }
      std::string message = "c";
      message += std::to_string(j);
      auto id = replica.Commit(CommitPayload(fx, j), "perfbench",
                               std::move(message), j + 1);
      if (!id.ok()) {
        out->error = "oracle commit: " + id.status().ToString();
        return;
      }
    }
    std::vector<profile::HumanProfile> users;
    users.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      users.push_back(fx.stream.users[keys[i].user]);
    }
    std::vector<profile::HumanProfile*> ptrs;
    for (profile::HumanProfile& u : users) ptrs.push_back(&u);
    auto lists = oracle.RecommendBatch(replica, after - 1, after, ptrs);
    if (!lists.ok()) {
      out->error = "oracle read (" + std::to_string(after - 1) + "," +
                   std::to_string(after) + "): " + lists.status().ToString();
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      if (Digest((*lists)[i - begin]) != keys[i].digest) ++out->mismatches;
    }
  }
}

}  // namespace

OracleResult CheckAgainstOracle(const Fixture& fx, ServedLog log) {
  OracleResult out;
  log.Compact();
  const std::vector<ServedRecord>& keys = log.records();
  out.keys = keys.size();
  out.conflicts = log.conflicts();

  std::vector<size_t> group_starts;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i].after != keys[i - 1].after) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(keys.size());

  // Replicas are built here, one at a time: the scenario KB is not
  // thread-safe. Each oracle thread then owns its replica.
  const size_t shares = std::min(kOracleReplicas, group_starts.size() - 1);
  std::vector<version::VersionedKnowledgeBase> replicas;
  replicas.reserve(shares);
  for (size_t s = 0; s < shares; ++s) {
    auto replica = Replica(fx);
    if (!replica.ok()) {
      out.error = "oracle replica: " + replica.status().ToString();
      return out;
    }
    replicas.push_back(std::move(replica).value());
  }
  std::vector<OracleResult> partial(shares);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < shares; ++s) {
    threads.emplace_back([&, s] {
      CheckShare(fx, replicas[s], keys, group_starts, s, shares, &partial[s]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const OracleResult& p : partial) {
    out.mismatches += p.mismatches;
    if (out.error.empty()) out.error = p.error;
  }
  return out;
}

}  // namespace evorec::perfbench

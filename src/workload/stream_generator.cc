#include "workload/stream_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "rdf/knowledge_base.h"
#include "schema/schema_view.h"
#include "workload/evolution_generator.h"

namespace evorec::workload {
namespace {

// All triples a change set touches, sorted for binary_search.
std::vector<rdf::Triple> SortedUnion(const version::ChangeSet& changes) {
  std::vector<rdf::Triple> out;
  out.reserve(changes.additions.size() + changes.removals.size());
  out.insert(out.end(), changes.additions.begin(), changes.additions.end());
  out.insert(out.end(), changes.removals.begin(), changes.removals.end());
  std::sort(out.begin(), out.end());
  return out;
}

void FilterOut(std::vector<rdf::Triple>& list,
               const std::vector<rdf::Triple>& sorted_drop) {
  std::erase_if(list, [&](const rdf::Triple& t) {
    return std::binary_search(sorted_drop.begin(), sorted_drop.end(), t);
  });
}

uint64_t ExponentialGap(Rng& rng, double mean_us) {
  const double gap = -mean_us * std::log1p(-rng.UniformDouble());
  return gap >= 1.0 ? static_cast<uint64_t>(gap) : 1;
}

// The block of instance-level triples kAdversarialChurn flaps, drawn
// from the generator's private working copy in SPO order.
std::vector<rdf::Triple> PickFlapPool(const rdf::KnowledgeBase& working,
                                      size_t block, Rng& rng) {
  std::vector<rdf::Triple> instance_level;
  working.store().ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    if (!working.vocabulary().IsSchemaPredicate(t.predicate)) {
      instance_level.push_back(t);
    }
    return true;
  });
  std::vector<rdf::Triple> pool;
  if (instance_level.empty() || block == 0) return pool;
  const auto picks = rng.SampleWithoutReplacement(
      instance_level.size(), std::min(block, instance_level.size()));
  pool.reserve(picks.size());
  for (size_t idx : picks) pool.push_back(instance_level[idx]);
  std::sort(pool.begin(), pool.end());
  return pool;
}

// Mass reparent: moves a fraction of the classes that have a parent to
// a random non-descendant parent, invalidating the subsumption
// neighborhood of every touched subtree at once.
version::ChangeSet ReparentWave(const rdf::KnowledgeBase& working,
                                const StreamOptions& options, Rng& rng) {
  version::ChangeSet out;
  const schema::SchemaView view = schema::SchemaView::Build(working);
  const auto& classes = view.classes();
  std::vector<rdf::TermId> movable;
  for (rdf::TermId c : classes) {
    if (!view.hierarchy().Parents(c).empty()) movable.push_back(c);
  }
  if (movable.empty() || classes.size() < 3) return out;
  size_t want = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(movable.size()) *
                             options.shockwave_fraction));
  want = std::min(want, movable.size());
  auto picks = rng.SampleWithoutReplacement(movable.size(), want);
  std::sort(picks.begin(), picks.end());
  const rdf::TermId subclass_of = working.vocabulary().rdfs_subclass_of;
  for (size_t idx : picks) {
    const rdf::TermId cls = movable[idx];
    const rdf::TermId old_parent = view.hierarchy().Parents(cls)[0];
    const auto descendants = view.hierarchy().Descendants(cls);
    std::unordered_set<rdf::TermId> forbidden(descendants.begin(),
                                              descendants.end());
    forbidden.insert(cls);
    forbidden.insert(old_parent);
    rdf::TermId new_parent = rdf::kAnyTerm;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const rdf::TermId candidate = classes[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(classes.size()) - 1))];
      if (forbidden.count(candidate) == 0) {
        new_parent = candidate;
        break;
      }
    }
    if (new_parent == rdf::kAnyTerm) continue;
    out.removals.push_back(rdf::Triple(cls, subclass_of, old_parent));
    out.additions.push_back(rdf::Triple(cls, subclass_of, new_parent));
  }
  return out;
}

version::ChangeSet BuildCommit(StreamMode mode, size_t commit_index,
                               rdf::KnowledgeBase& working,
                               rdf::Dictionary& dictionary,
                               const StreamOptions& options,
                               const std::vector<rdf::Triple>& flap_pool,
                               Rng& rng) {
  EvolutionOptions evo;
  evo.operations = options.ops_per_commit;
  evo.hotspot_count = 2;
  // Epochs 1000+ keep stream-minted fresh IRIs disjoint from the
  // scenario's own transitions (epochs 1..versions).
  evo.epoch = 1000 + commit_index;
  evo.seed = options.seed * 7919 + commit_index * 131 + 17;

  version::ChangeSet crafted;
  switch (mode) {
    case StreamMode::kBurstyCommits:
    case StreamMode::kZipfReads:
      break;  // plain mixed-evolution payload
    case StreamMode::kAdversarialChurn:
      evo.mix = ChangeMix::InstanceChurn();
      evo.operations = options.ops_per_commit * 3;
      for (const rdf::Triple& t : flap_pool) {
        if (working.store().Contains(t)) {
          crafted.removals.push_back(t);
        } else {
          crafted.additions.push_back(t);
        }
      }
      break;
    case StreamMode::kSchemaShockwave:
      evo.mix = ChangeMix::SchemaHeavy();
      crafted = ReparentWave(working, options, rng);
      break;
    case StreamMode::kOverloadRamp:
      break;  // plain payload — the ramp lives in the arrival gaps
  }

  EvolutionOutcome noise = GenerateEvolution(working, dictionary, evo);
  if (!crafted.empty()) {
    // The crafted edits are authoritative; drop colliding noise triples
    // so no triple appears twice in the merged set.
    const auto touched = SortedUnion(crafted);
    FilterOut(noise.changes.additions, touched);
    FilterOut(noise.changes.removals, touched);
  }
  version::ChangeSet changes = std::move(crafted);
  changes.additions.insert(changes.additions.end(),
                           noise.changes.additions.begin(),
                           noise.changes.additions.end());
  changes.removals.insert(changes.removals.end(),
                          noise.changes.removals.begin(),
                          noise.changes.removals.end());
  return changes;
}

// Interleaving schedule: true = commit slot.
std::vector<bool> BuildSchedule(const StreamOptions& options) {
  std::vector<bool> slots;
  slots.reserve(options.reads + options.commits);
  if (options.mode == StreamMode::kBurstyCommits) {
    size_t reads_left = options.reads;
    size_t commits_left = options.commits;
    while (reads_left > 0 || commits_left > 0) {
      for (size_t i = 0; i < options.burst_off && reads_left > 0; ++i) {
        slots.push_back(false);
        --reads_left;
      }
      for (size_t i = 0; i < options.burst_on && commits_left > 0; ++i) {
        slots.push_back(true);
        --commits_left;
      }
      if (reads_left == 0) {
        while (commits_left > 0) {
          slots.push_back(true);
          --commits_left;
        }
      }
    }
  } else {
    // Evenly spread: a commit after every `stride` reads.
    const size_t stride =
        options.commits == 0
            ? options.reads + 1
            : std::max<size_t>(1, options.reads / options.commits);
    size_t reads_left = options.reads;
    size_t commits_left = options.commits;
    while (reads_left > 0 || commits_left > 0) {
      for (size_t i = 0; i < stride && reads_left > 0; ++i) {
        slots.push_back(false);
        --reads_left;
      }
      if (commits_left > 0) {
        slots.push_back(true);
        --commits_left;
      }
    }
  }
  return slots;
}

}  // namespace

const char* StreamModeName(StreamMode mode) {
  switch (mode) {
    case StreamMode::kBurstyCommits:
      return "bursty-commits";
    case StreamMode::kZipfReads:
      return "zipf-reads";
    case StreamMode::kAdversarialChurn:
      return "adversarial-churn";
    case StreamMode::kSchemaShockwave:
      return "schema-shockwave";
    case StreamMode::kOverloadRamp:
      return "overload-ramp";
  }
  return "unknown";
}

WorkloadStream GenerateStream(Scenario& scenario,
                              const StreamOptions& options) {
  WorkloadStream out;
  out.mode = options.mode;
  out.options = options;
  out.name = scenario.name + "/" + StreamModeName(options.mode);

  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  out.base_head = vkb.head();
  // Private working copy: triples copied, dictionary shared with the
  // scenario, so fresh IRIs interned during generation carry the same
  // TermIds any replay of this scenario sees.
  rdf::KnowledgeBase working = *vkb.Snapshot(vkb.head()).value();

  Rng rng(options.seed);
  Rng profile_rng(options.seed + 0x9E3779B9u);

  const schema::SchemaView head_view = schema::SchemaView::Build(working);
  out.users.reserve(options.population);
  for (size_t i = 0; i < options.population; ++i) {
    out.users.push_back(GenerateProfile(out.name + "/u" + std::to_string(i),
                                        head_view, options.profile,
                                        profile_rng));
  }

  std::vector<rdf::Triple> flap_pool;
  if (options.mode == StreamMode::kAdversarialChurn) {
    flap_pool = PickFlapPool(working, options.flap_block, rng);
  }

  const std::vector<bool> schedule = BuildSchedule(options);
  version::VersionId virtual_head = out.base_head;
  uint64_t now_us = 0;
  size_t commit_index = 0;
  bool in_storm = false;
  for (size_t slot = 0; slot < schedule.size(); ++slot) {
    const bool is_commit = schedule[slot];
    // Storm commits arrive back-to-back: compress their gaps.
    double gap_scale =
        (is_commit && options.mode == StreamMode::kBurstyCommits && in_storm)
            ? 0.125
            : 1.0;
    if (options.mode == StreamMode::kOverloadRamp && schedule.size() > 1) {
      // Arrival rate ramps linearly with stream progress from 1x to
      // overload_factor x the base rate, so the gap shrinks as its
      // reciprocal.
      const double progress = static_cast<double>(slot) /
                              static_cast<double>(schedule.size() - 1);
      const double rate_multiple =
          1.0 + progress * (std::max(options.overload_factor, 1.0) - 1.0);
      gap_scale = 1.0 / rate_multiple;
    }
    now_us += ExponentialGap(rng, options.mean_gap_us * gap_scale);
    in_storm = is_commit;

    StreamEvent event;
    event.timestamp_us = now_us;
    if (is_commit) {
      event.kind = StreamEvent::Kind::kCommit;
      event.changes =
          BuildCommit(options.mode, commit_index, working,
                      vkb.dictionary(), options, flap_pool, rng);
      out.change_triples +=
          event.changes.additions.size() + event.changes.removals.size();
      working.store().AddAll(event.changes.additions);
      working.store().RemoveAll(event.changes.removals);
      working.store().Compact();
      ++virtual_head;
      ++commit_index;
      ++out.commit_count;
    } else {
      event.kind = StreamEvent::Kind::kRead;
      event.user = options.mode == StreamMode::kZipfReads
                       ? rng.Zipf(options.population, options.zipf_exponent)
                       : static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(options.population) - 1));
      if (virtual_head >= 2 && rng.Bernoulli(options.historical_fraction)) {
        event.before = static_cast<version::VersionId>(
            rng.UniformInt(0, static_cast<int64_t>(virtual_head) - 2));
      } else {
        event.before = virtual_head - 1;
      }
      event.after = event.before + 1;
      ++out.read_count;
    }
    out.events.push_back(std::move(event));
  }
  return out;
}

}  // namespace evorec::workload

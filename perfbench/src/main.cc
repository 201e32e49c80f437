// The repository benchmark program. Runs one workload end to end
// through engine::RecommendationService on a 4-shard KB:
//
//   perfbench --workload <hot_reads|live_feed|history_scan>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every input is generated from --seed. A run is kSegments segments,
// each a fresh set-up, an unmeasured warm-up and a measured window. With
// --trace 0 the window is untraced and the run prints the end-to-end
// metrics; with --trace 1 it is split into an untraced, a traced-service
// and a decomposed window and the run prints the per-layer metrics.
// Either way every served list is checked against a sequential oracle
// after each segment. The last stdout line is the JSON result; the
// process exits non-zero on any oracle mismatch.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fixture.h"
#include "histogram.h"
#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace evorec::perfbench {
namespace {

// Segments per run, each with its own set-up. Every end-to-end figure
// is the median over the segments, so a disturbance that slows one
// segment (CPU stolen by the host, say) does not move it.
constexpr int kSegments = 3;

// Unmeasured warm-up before each segment's windows, seconds: it pays
// the one-off costs of a fresh process and fixture (heap growth, cold
// caches) and brings history_scan's engine caches to their steady
// state, so every segment measures the same regime.
constexpr double kWarmUpS = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool seed_set = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* rest = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &rest, 10);
      seed_set = rest != nullptr && *rest == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &rest);
      if (rest == nullptr || *rest != '\0') args->seconds = 0.0;
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seed_set && args->seconds > 0.0 &&
         args->trace >= 0 && FindWorkload(args->workload) != nullptr;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Library counters read through their public accessors; the per-layer
// counters are differences of two of these.
struct Counters {
  engine::EngineStats engine;
  engine::ArtefactCacheStats artefacts;
  engine::IncrementalStats incremental;
  uint64_t segments_frozen = 0;
  uint64_t segment_merges = 0;
  uint64_t secondary_builds = 0;
  uint64_t materializations = 0;
};

void AddStore(const rdf::TripleStore& store, Counters* c) {
  const rdf::TripleStoreStats& s = store.stats();
  c->segments_frozen += s.segments_frozen;
  c->segment_merges += s.segment_merges;
  c->secondary_builds += s.secondary_builds();
  c->materializations += s.materializations;
}

// Reads every counter. Store counters are per store object (a copy
// starts from zero), so they are summed over every version's store in
// every shard plus every published union snapshot. Call only while no
// window runs: shard stores are not safe to read beside a commit.
Counters ReadCounters(Fixture& fx) {
  Counters c;
  c.engine = fx.service->engine_stats();
  c.artefacts = fx.service->engine().artefact_stats();
  c.incremental = fx.service->engine().incremental_stats();
  for (version::VersionId v = 0; v <= fx.kb->head(); ++v) {
    for (size_t i = 0; i < fx.kb->shard_count(); ++i) {
      auto store = fx.kb->shard(i).Snapshot(v);
      if (store.ok()) AddStore((*store)->store(), &c);
    }
    auto snapshot = fx.kb->SharedSnapshot(v);
    if (snapshot.ok()) AddStore((*snapshot)->store(), &c);
  }
  return c;
}

double Throughput(const WindowResult& w) {
  return Ratio(static_cast<double>(w.users_served), w.elapsed_s);
}

// Totals of a run over its segments.
struct RunTotals {
  std::vector<double> setup_s;
  // Untraced end-to-end figures, one entry per segment.
  std::vector<double> segment_rps;
  std::vector<double> segment_read_p50_us;
  std::vector<double> segment_read_p90_us;
  std::vector<double> segment_commit_p50_us;
  double peak_rss_mb = 0;    ///< after the first segment's windows
  WindowResult warm_up;       ///< unmeasured
  WindowResult windows[3];    ///< by Path
  Counters before;
  Counters after;
  uint64_t peak_in_flight = 0;
  uint64_t sheds = 0;
  OracleResult oracle;
  InputSummary inputs;
};

void AddCounters(const Counters& c, Counters* sum) {
  sum->engine.context_hits += c.engine.context_hits;
  sum->engine.context_misses += c.engine.context_misses;
  sum->engine.contexts_built += c.engine.contexts_built;
  sum->engine.context_coalesced += c.engine.context_coalesced;
  sum->engine.context_evictions += c.engine.context_evictions;
  sum->artefacts.hits += c.artefacts.hits;
  sum->artefacts.misses += c.artefacts.misses;
  sum->artefacts.coalesced += c.artefacts.coalesced;
  sum->artefacts.evictions += c.artefacts.evictions;
  sum->artefacts.betweenness_runs += c.artefacts.betweenness_runs;
  sum->incremental.advanced += c.incremental.advanced;
  sum->incremental.full_recomputes += c.incremental.full_recomputes;
  sum->incremental.recomputed_sources += c.incremental.recomputed_sources;
  sum->incremental.total_sources += c.incremental.total_sources;
  sum->segments_frozen += c.segments_frozen;
  sum->segment_merges += c.segment_merges;
  sum->secondary_builds += c.secondary_builds;
  sum->materializations += c.materializations;
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].first.c_str(),
                    entries_[i].second.first, entries_[i].second.second);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>> entries_;
};

// Every span the decomposed path records, reported even when a workload
// never reaches it (count 0).
const char* const kLayerSpans[] = {
    "engine.evaluate",          "engine.shared_state",
    "engine.refresh",           "version.commit",
    "version.snapshot",         "schema.view_build",
    "graph.schema_graph_build", "graph.brandes",
    "delta.context_build",      "recommend.prepare_shared",
    "recommend.for_user",       "common.parallel_for",
};
const char* const kRootSpans[] = {"bench.read", "bench.commit", "bench.batch",
                                  "bench.cold_rebuild"};

void AddSpanMetrics(const Tracer& tracer, Metrics* m) {
  const std::map<std::string, SpanTotals> totals = tracer.Aggregate();
  const double request_us = tracer.RootBusyUs();
  auto get = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  auto add = [&](const std::string& name, bool detailed) {
    const SpanTotals t = get(name);
    m->Add(name + ".count", static_cast<double>(t.count), "count");
    m->Add(name + ".self_us", Ratio(t.self_us, static_cast<double>(t.count)),
           "us");
    if (detailed) m->Add(name + ".busy_ms", t.busy_us / 1e3, "ms");
    m->Add(name + ".share", Ratio(t.self_us, request_us), "ratio");
  };
  for (const char* name : kLayerSpans) add(name, true);
  for (const std::string& name : ReportSpanNames()) add(name, false);
  for (const char* name : kRootSpans) {
    const SpanTotals t = get(name);
    m->Add(std::string(name) + ".count", static_cast<double>(t.count), "count");
    m->Add(std::string(name) + ".busy_ms", t.busy_us / 1e3, "ms");
  }
}

void AddCounterMetrics(const RunTotals& totals, Metrics* m) {
  const Counters& a = totals.before;
  const Counters& b = totals.after;
  auto d = [](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before);
  };
  const double hits = d(a.engine.context_hits, b.engine.context_hits);
  const double misses = d(a.engine.context_misses, b.engine.context_misses);
  const double coalesced =
      d(a.engine.context_coalesced, b.engine.context_coalesced);
  m->Add("engine.context_hit_ratio", Ratio(hits, hits + misses + coalesced),
         "ratio");
  m->Add("engine.contexts_built",
         d(a.engine.contexts_built, b.engine.contexts_built), "count");
  m->Add("engine.context_coalesced", coalesced, "count");
  m->Add("engine.context_evictions",
         d(a.engine.context_evictions, b.engine.context_evictions), "count");
  const double art_hits = d(a.artefacts.hits, b.artefacts.hits);
  const double art_all = art_hits + d(a.artefacts.misses, b.artefacts.misses) +
                         d(a.artefacts.coalesced, b.artefacts.coalesced);
  m->Add("engine.artefact_hit_ratio", Ratio(art_hits, art_all), "ratio");
  m->Add("engine.artefact_evictions",
         d(a.artefacts.evictions, b.artefacts.evictions), "count");
  m->Add("engine.admission.peak_in_flight",
         static_cast<double>(totals.peak_in_flight), "count");
  m->Add("engine.admission.sheds", static_cast<double>(totals.sheds),
         "count");

  m->Add("rdf.segments_frozen", d(a.segments_frozen, b.segments_frozen),
         "count");
  m->Add("rdf.segment_merges", d(a.segment_merges, b.segment_merges), "count");
  m->Add("rdf.secondary_builds", d(a.secondary_builds, b.secondary_builds),
         "count");
  m->Add("rdf.materializations", d(a.materializations, b.materializations),
         "count");

  m->Add("graph.betweenness_runs",
         d(a.artefacts.betweenness_runs, b.artefacts.betweenness_runs),
         "count");
  m->Add("graph.advanced", d(a.incremental.advanced, b.incremental.advanced),
         "count");
  m->Add("graph.full_recomputes",
         d(a.incremental.full_recomputes, b.incremental.full_recomputes),
         "count");
  m->Add("graph.recomputed_source_ratio",
         Ratio(d(a.incremental.recomputed_sources,
                 b.incremental.recomputed_sources),
               d(a.incremental.total_sources, b.incremental.total_sources)),
         "ratio");

  const measures::ReportCacheStats& r = totals.windows[2].report_stats;
  m->Add("measures.report_hit_ratio",
         Ratio(static_cast<double>(r.hits),
               static_cast<double>(r.hits + r.computations + r.coalesced)),
         "ratio");
}

// One segment: a fresh set-up (timed), its windows, and the oracle check
// of what they served. Fresh fixtures (new service, thread pool and
// heap state) per segment average out per-instance effects that a
// single long window would carry through the whole run.
bool RunSegment(const Args& args, const WorkloadSpec& spec,
                double seconds, Tracer* service_tracer,
                Tracer* layer_tracer, RunTotals* totals) {
  const auto start = std::chrono::steady_clock::now();
  auto built = SetUp(spec, args.seed);
  totals->setup_s.push_back(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 built.status().ToString().c_str());
    return false;
  }
  Fixture& fx = **built;
  totals->inputs = fx.inputs;

  ServedLog served;
  {
    // Unmeasured, but its lists are still checked by the oracle.
    WindowResult warm_up = RunWindow(fx, Path::kService, kWarmUpS, nullptr);
    served.Merge(std::move(warm_up.served));
    Accumulate(totals->warm_up, std::move(warm_up));
  }
  AddCounters(ReadCounters(fx), &totals->before);
  WindowResult windows[3];
  if (args.trace == 0) {
    windows[0] = RunWindow(fx, Path::kService, seconds, nullptr);
  } else {
    windows[0] = RunWindow(fx, Path::kService, seconds / 3, nullptr);
    windows[1] =
        RunWindow(fx, Path::kServiceTraced, seconds / 3, service_tracer);
    windows[2] = RunWindow(fx, Path::kDecomposed, seconds / 3, layer_tracer);
  }
  totals->segment_rps.push_back(Throughput(windows[0]));
  totals->segment_read_p50_us.push_back(windows[0].read_us.Quantile(0.5));
  totals->segment_read_p90_us.push_back(windows[0].read_us.Quantile(0.9));
  totals->segment_commit_p50_us.push_back(windows[0].commit_us.Quantile(0.5));
  // One fixture's peak: later segments reuse the heap the first one grew.
  if (totals->peak_rss_mb == 0) totals->peak_rss_mb = PeakRssMb();
  AddCounters(ReadCounters(fx), &totals->after);
  const engine::AdmissionStats admission = fx.service->admission_stats();
  totals->peak_in_flight =
      std::max<uint64_t>(totals->peak_in_flight, admission.peak_in_flight);
  totals->sheds += admission.sheds();

  for (WindowResult& w : windows) served.Merge(std::move(w.served));
  const OracleResult oracle = CheckAgainstOracle(fx, std::move(served));
  totals->oracle.keys += oracle.keys;
  totals->oracle.conflicts += oracle.conflicts;
  totals->oracle.mismatches += oracle.mismatches;
  if (totals->oracle.error.empty()) totals->oracle.error = oracle.error;
  for (int i = 0; i < 3; ++i) {
    Accumulate(totals->windows[i], std::move(windows[i]));
  }
  return true;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  RunTotals totals;
  Tracer service_tracer;
  Tracer layer_tracer;
  for (int s = 0; s < kSegments; ++s) {
    if (!RunSegment(args, spec, args.seconds / kSegments,
                    &service_tracer, &layer_tracer, &totals)) {
      return 1;
    }
  }
  const WindowResult* windows = totals.windows;

  uint64_t attempted = totals.warm_up.attempted;
  uint64_t failed = totals.warm_up.failed;
  for (const WindowResult& w : totals.windows) {
    attempted += w.attempted;
    failed += w.failed;
  }
  const size_t cold_rebuilds = windows[2].cold_rebuilds;
  const size_t cold_mismatches = windows[2].cold_mismatches;
  const OracleResult& oracle = totals.oracle;
  const bool correct = oracle.ok() && cold_mismatches == 0;

  Histogram late_us;
  for (const WindowResult& w : totals.windows) late_us.Merge(w.late_us);
  const double late_p99 = late_us.Quantile(0.99);
  const WindowResult& main = windows[0];
  std::string segment_rps;
  for (double rps : totals.segment_rps) {
    segment_rps += (segment_rps.empty() ? "" : ", ") + std::to_string(rps);
  }
  std::string deciles;
  for (int d = 1; d <= 9; ++d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", d == 1 ? "" : ", ",
                  main.read_us.Quantile(d / 10.0));
    deciles += buf;
  }
  std::string oracle_error = oracle.error;
  std::replace(oracle_error.begin(), oracle_error.end(), '"', '\'');
  const InputSummary& in = totals.inputs;
  std::printf(
      "info {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"inputs\": {\"versions\": %zu, \"triples\": %zu, \"commits\": %zu, "
      "\"change_triples\": %zu, \"population\": %zu}, "
      "\"window_s\": %.3f, \"read_calls\": %llu, \"commits\": %llu, "
      "\"segment_rps\": [%s], \"read_deciles_us\": [%s], "
      "\"read_p99_us\": %.1f, "
      "\"read_p999_us\": %.1f, \"commit_p90_us\": %.1f, "
      "\"generator_late_p99_us\": %.1f, \"fail_ratio\": %.6g, "
      "\"oracle\": {\"keys\": %zu, \"conflicts\": %zu, "
      "\"mismatches\": %zu, \"error\": \"%s\"}, \"cold_rebuilds\": %zu, "
      "\"cold_mismatches\": %zu}\n",
      spec.name, static_cast<unsigned long long>(args.seed), args.trace,
      in.versions, in.triples, in.commits, in.change_triples, in.population,
      main.elapsed_s, static_cast<unsigned long long>(main.read_us.count()),
      static_cast<unsigned long long>(main.commit_us.count()),
      segment_rps.c_str(), deciles.c_str(), main.read_us.Quantile(0.99),
      main.read_us.Quantile(0.999), main.commit_us.Quantile(0.90), late_p99,
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      oracle.keys, oracle.conflicts, oracle.mismatches, oracle_error.c_str(),
      cold_rebuilds, cold_mismatches);

  Metrics metrics;
  if (args.trace == 0) {
    metrics.Add("setup_s", Median(totals.setup_s), "s");
    metrics.Add("throughput_rps", Median(totals.segment_rps), "1/s");
    metrics.Add("read_p50_us", Median(totals.segment_read_p50_us), "us");
    metrics.Add("read_p90_us", Median(totals.segment_read_p90_us), "us");
    metrics.Add("commit_p50_us", Median(totals.segment_commit_p50_us), "us");
    metrics.Add("peak_rss_mb", totals.peak_rss_mb, "MB");
  } else {
    AddSpanMetrics(layer_tracer, &metrics);
    AddCounterMetrics(totals, &metrics);
    const double untraced = Throughput(windows[0]);
    const double traced = Throughput(windows[1]);
    metrics.Add("bench.untraced_rps", untraced, "1/s");
    metrics.Add("bench.traced_rps", traced, "1/s");
    metrics.Add("bench.trace_overhead_pct",
                100.0 * Ratio(untraced - traced, untraced), "%");
    metrics.Add("bench.decomposed_rps", Throughput(windows[2]), "1/s");
    metrics.Add("bench.generator_late_p99_us", late_p99, "us");
    metrics.Add("bench.cold_rebuilds", static_cast<double>(cold_rebuilds),
                "count");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace evorec::perfbench

int main(int argc, char** argv) {
  evorec::perfbench::Args args;
  if (!evorec::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot_reads|live_feed|"
                 "history_scan> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return evorec::perfbench::Run(args);
}

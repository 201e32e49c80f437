// E13 — fast cold path (chain walk + parallel Brandes). Two claims:
//
//  1. Walking a K-version chain through the engine's version-keyed
//     artefact cache performs exactly K betweenness computations and K
//     schema-graph builds, where the pair-keyed path performed
//     2·(K−1) of each — so a cold chain walk is ≥2× faster end to end
//     (artefact dedup × pooled Brandes).
//  2. The ThreadPool overload of Brandes betweenness scales with
//     workers while staying bit-identical to the serial path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "bench_common.h"

namespace evorec::bench {
namespace {

constexpr size_t kTransitions = 24;  // K = kTransitions + 1 versions

// A schema-heavy K-version chain (the paper's setting: ontology
// evolution, not instance churn) — classes appear, move and vanish
// across the history, so each pair's union universe differs from both
// versions' own class sets and structural measures do real work.
std::unique_ptr<version::VersionedKnowledgeBase> MakeSchemaHeavyChain(
    uint64_t seed, size_t classes) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = classes;
  schema_options.property_count = classes / 2 + 10;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = classes * 4;
  instance_options.edge_count = classes * 8;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  auto vkb = std::make_unique<version::VersionedKnowledgeBase>(
      std::move(generated.kb));
  for (size_t v = 0; v < kTransitions; ++v) {
    auto head = vkb->Snapshot(vkb->head());
    workload::EvolutionOptions evolution_options;
    evolution_options.operations = classes * 2;
    evolution_options.mix = workload::ChangeMix::SchemaHeavy();
    evolution_options.epoch = v + 1;
    evolution_options.seed = seed + 100 + v;
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb->dictionary(), evolution_options);
    (void)vkb->Commit(std::move(outcome.changes), "generator",
                      "chain transition " + std::to_string(v + 1),
                      /*timestamp=*/v + 1);
  }
  return vkb;
}

// ---------------------------------------------------------------------------
// Faithful reference implementation of the PRE-PR pair-keyed cold walk,
// kept here so the before/after comparison stays runnable from one
// binary: per pair, both snapshots are copied, both schema views are
// rebuilt, both schema graphs are built over the pair's UNION class
// universe, betweenness runs serially with the old per-node-vector
// Brandes, and the delta index materialises every class neighborhood
// eagerly. Middle versions of the chain pay all of it twice.

std::vector<double> PrePrBetweennessExact(const graph::Graph& g) {
  const size_t n = g.node_count();
  std::vector<double> centrality(n, 0.0);
  std::vector<int64_t> distance;
  std::vector<double> sigma;
  std::vector<double> dependency;
  std::vector<std::vector<graph::NodeId>> predecessors(n);
  std::vector<graph::NodeId> order;
  order.reserve(n);
  for (graph::NodeId s = 0; s < n; ++s) {
    distance.assign(n, -1);
    sigma.assign(n, 0.0);
    dependency.assign(n, 0.0);
    order.clear();
    distance[s] = 0;
    sigma[s] = 1.0;
    predecessors[s].clear();
    order.push_back(s);
    for (size_t qi = 0; qi < order.size(); ++qi) {
      const graph::NodeId v = order[qi];
      for (graph::NodeId w : g.Neighbors(v)) {
        if (distance[w] < 0) {
          distance[w] = distance[v] + 1;
          predecessors[w].clear();
          order.push_back(w);
        }
        if (distance[w] == distance[v] + 1) {
          sigma[w] += sigma[v];
          predecessors[w].push_back(v);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const graph::NodeId w = *it;
      for (graph::NodeId v : predecessors[w]) {
        dependency[v] += sigma[v] / sigma[w] * (1.0 + dependency[w]);
      }
      if (w != s) centrality[w] += dependency[w];
    }
  }
  for (double& c : centrality) c /= 2.0;
  return centrality;
}

std::vector<rdf::TermId> PrePrSortedUnion(
    const std::vector<rdf::TermId>& a, const std::vector<rdf::TermId>& b) {
  std::vector<rdf::TermId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

measures::MeasureReport PrePrBetweennessShift(
    const rdf::KnowledgeBase& before_src,
    const rdf::KnowledgeBase& after_src) {
  // Pre-PR EvolutionContext::Build: copy both snapshots, ...
  const rdf::KnowledgeBase before = before_src;
  const rdf::KnowledgeBase after = after_src;
  const schema::SchemaView view_before = schema::SchemaView::Build(before);
  const schema::SchemaView view_after = schema::SchemaView::Build(after);
  const delta::LowLevelDelta low = delta::ComputeLowLevelDelta(before, after);
  const rdf::Vocabulary& voc = before.vocabulary();

  // ... build the old hash-map delta index (direct counts, a full map
  // copy for extended attribution, and eagerly materialised
  // per-class neighborhood unions), ...
  std::unordered_map<rdf::TermId, size_t> direct =
      delta::PerTermChangeCounts(low);
  std::unordered_map<rdf::TermId, size_t> extended = direct;
  const std::vector<rdf::TermId> union_classes =
      PrePrSortedUnion(view_before.classes(), view_after.classes());
  const auto class_of_instance = [&](rdf::TermId instance) {
    rdf::TermId cls = view_after.TypeOf(instance);
    if (cls == rdf::kAnyTerm) cls = view_before.TypeOf(instance);
    return cls;
  };
  const auto attribute = [&](const rdf::Triple& t) {
    if (t.predicate == voc.rdf_type) return;
    if (voc.IsSchemaPredicate(t.predicate)) return;
    const rdf::TermId cs = class_of_instance(t.subject);
    const rdf::TermId co = class_of_instance(t.object);
    if (cs != rdf::kAnyTerm) ++extended[cs];
    if (co != rdf::kAnyTerm && co != cs) ++extended[co];
  };
  for (const rdf::Triple& t : low.added) attribute(t);
  for (const rdf::Triple& t : low.removed) attribute(t);
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> neighborhoods;
  for (rdf::TermId cls : union_classes) {
    neighborhoods[cls] = PrePrSortedUnion(view_before.Neighborhood(cls),
                                          view_after.Neighborhood(cls));
  }
  benchmark::DoNotOptimize(neighborhoods.size());

  // ... and build both graphs over the pair's union universe.
  const auto g_before = graph::SchemaGraph::Build(view_before, union_classes);
  const auto g_after = graph::SchemaGraph::Build(view_after, union_classes);
  const std::vector<double> b = PrePrBetweennessExact(g_before.graph());
  const std::vector<double> a = PrePrBetweennessExact(g_after.graph());
  measures::MeasureReport report;
  for (size_t i = 0; i < union_classes.size(); ++i) {
    report.Add(union_classes[i], std::abs(a[i] - b[i]));
  }
  return report;
}

Result<measures::EvolutionTimeline> PrePrChainWalk(
    const version::VersionedKnowledgeBase& vkb) {
  std::vector<measures::MeasureReport> reports;
  for (version::VersionId v = 0; v < vkb.head(); ++v) {
    auto before = vkb.Snapshot(v);
    if (!before.ok()) return before.status();
    auto after = vkb.Snapshot(v + 1);
    if (!after.ok()) return after.status();
    reports.push_back(PrePrBetweennessShift(**before, **after));
  }
  return measures::EvolutionTimeline::FromReports(std::move(reports));
}

graph::Graph RandomGraph(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  edges.reserve(m);
  for (size_t e = 0; e < m; ++e) {
    edges.emplace_back(
        static_cast<graph::NodeId>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1)),
        static_cast<graph::NodeId>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
  }
  return graph::Graph::FromEdges(n, std::move(edges));
}

void PrintColdPathTable() {
  PrintHeader("E13 — cold chain walk: pair-keyed vs artefact cache",
              "first-touch latency of a K-version history walk drops "
              ">=2x once per-version artefacts are built once, not "
              "2*(K-1) times");
  TablePrinter table({"scenario", "versions", "pre_pr_ms", "pair_keyed_ms",
                      "engine_ms", "speedup", "pre_pr_brandes",
                      "engine_brandes"});

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (uint64_t seed : {101u, 103u}) {
    auto vkb = MakeSchemaHeavyChain(seed, 200);
    const size_t versions = vkb->version_count();
    measures::BetweennessShiftMeasure measure;

    // Warm the versioned KB's snapshot cache so every path measures
    // context work, not delta replay.
    for (size_t v = 0; v < versions; ++v) {
      (void)vkb->Snapshot(static_cast<version::VersionId>(v));
    }

    Stopwatch pre_pr_timer;
    auto pre_pr = PrePrChainWalk(*vkb);
    const double pre_pr_ms = pre_pr_timer.ElapsedMillis();
    if (!pre_pr.ok()) continue;

    // The post-refactor pair-keyed path (no artefact cache): already
    // faster thanks to own-universe graphs, flat kernels and deferred
    // neighborhoods, but still 2·(K−1) artefact builds.
    Stopwatch pair_timer;
    auto classic =
        measures::EvolutionTimeline::Compute(*vkb, measure);
    const double pair_ms = pair_timer.ElapsedMillis();
    if (!classic.ok()) continue;

    Stopwatch engine_timer;
    engine::EvaluationEngine engine(
        registry, {.context_cache_capacity = 2 * kTransitions});
    auto walked = engine.Timeline(*vkb, "betweenness_shift");
    const double engine_ms = engine_timer.ElapsedMillis();
    if (!walked.ok()) continue;

    const engine::ArtefactCacheStats stats = engine.artefact_stats();
    table.AddRow({"schema_heavy/" + std::to_string(seed),
                  TablePrinter::Cell(versions),
                  TablePrinter::Cell(pre_pr_ms, 2),
                  TablePrinter::Cell(pair_ms, 2),
                  TablePrinter::Cell(engine_ms, 2),
                  TablePrinter::Cell(
                      engine_ms > 0 ? pre_pr_ms / engine_ms : 0, 2),
                  TablePrinter::Cell(2 * (versions - 1)),
                  TablePrinter::Cell(stats.betweenness_runs)});
  }
  table.Print(std::cout);
  std::printf(
      "expected shape: engine_brandes == versions (not 2*(K-1)) and "
      "speedup (pre_pr/engine) >= 2.\n");
}

// The pre-PR cold path, faithfully emulated: per-pair contexts with
// union-universe graphs, every middle version's artefacts built twice,
// old serial Brandes, eager neighborhoods.
void BM_ColdChainWalkPrePR(benchmark::State& state) {
  auto vkb = MakeSchemaHeavyChain(111, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto timeline = PrePrChainWalk(*vkb);
    benchmark::DoNotOptimize(timeline.ok());
  }
}
BENCHMARK(BM_ColdChainWalkPrePR)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// This PR's pair-keyed path (no artefact cache yet): own-universe
// graphs + flat kernels + deferred neighborhoods, still 2·(K−1)
// artefact builds.
void BM_ColdChainWalkPairKeyed(benchmark::State& state) {
  auto vkb = MakeSchemaHeavyChain(111, static_cast<size_t>(state.range(0)));
  measures::BetweennessShiftMeasure measure;
  for (auto _ : state) {
    auto timeline =
        measures::EvolutionTimeline::Compute(*vkb, measure);
    benchmark::DoNotOptimize(timeline.ok());
  }
}
BENCHMARK(BM_ColdChainWalkPairKeyed)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// The rebuilt cold path: a fresh engine per iteration (nothing warm),
// artefact-cache dedup + pooled Brandes.
void BM_ColdChainWalkEngine(benchmark::State& state) {
  auto vkb = MakeSchemaHeavyChain(111, static_cast<size_t>(state.range(0)));
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (auto _ : state) {
    engine::EvaluationEngine engine(
        registry, {.context_cache_capacity = 2 * kTransitions});
    auto timeline = engine.Timeline(*vkb, "betweenness_shift");
    benchmark::DoNotOptimize(timeline.ok());
  }
}
BENCHMARK(BM_ColdChainWalkEngine)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Brandes scaling: Arg = worker threads (0 = serial path).
void BM_ParallelBrandes(benchmark::State& state) {
  const graph::Graph g = RandomGraph(1500, 5200, 7);
  std::optional<ThreadPool> pool;
  if (state.range(0) > 0) pool.emplace(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto scores =
        graph::BetweennessExact(g, pool ? &*pool : nullptr);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_ParallelBrandes)->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintColdPathTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

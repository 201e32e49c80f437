#include "workloads.h"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

namespace evorec::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using recommend::RecommendationList;
using version::VersionId;

// history_scan's decomposed path rebuilds the pair of every kColdSample-th
// read (each pair at most once) through the lower layers.
constexpr size_t kColdSample = 8;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

bool SameScores(const measures::MeasureReport& a,
                const measures::MeasureReport& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.scores()[i].term != b.scores()[i].term ||
        a.scores()[i].score != b.scores()[i].score) {
      return false;
    }
  }
  return true;
}

// Serves one window's operations on the chosen path.
class Server {
 public:
  Server(Fixture& fx, Path path, Tracer* tracer)
      : fx_(fx),
        decomposed_(path == Path::kDecomposed),
        tracer_(path == Path::kService ? nullptr : tracer),
        service_(*fx.service),
        engine_(service_.engine()),
        rec_(service_.recommender()),
        context_(service_.options().context) {}

  bool decomposed() const { return decomposed_; }

  Result<RecommendationList> Read(VersionId v1, VersionId v2,
                                  profile::HumanProfile& prof) {
    Scope root(tracer_, "bench.read");
    if (!decomposed_) return service_.Recommend(*fx_.kb, v1, v2, prof);
    auto state = SharedState(v1, v2);
    if (!state.ok()) return state.status();
    Scope span(tracer_, "recommend.for_user");
    return rec_.RecommendForUser(**state, prof);
  }

  Result<std::vector<RecommendationList>> Batch(
      VersionId v1, VersionId v2,
      const std::vector<profile::HumanProfile*>& profiles) {
    Scope root(tracer_, "bench.batch");
    if (!decomposed_) {
      return service_.RecommendBatch(*fx_.kb, v1, v2, profiles);
    }
    auto state = SharedState(v1, v2);
    if (!state.ok()) return state.status();
    std::vector<Result<RecommendationList>> slots(
        profiles.size(),
        Result<RecommendationList>(InternalError("request not served")));
    {
      Scope fan_out(tracer_, "common.parallel_for");
      const uint64_t parent = fan_out.id();
      const uint64_t request = fan_out.request();
      engine_.pool().ParallelFor(profiles.size(), [&](size_t i) {
        Scope span(tracer_, "recommend.for_user", parent, request);
        slots[i] = rec_.RecommendForUser(**state, *profiles[i]);
      });
    }
    std::vector<RecommendationList> lists;
    lists.reserve(slots.size());
    for (auto& slot : slots) {
      if (!slot.ok()) return slot.status();
      lists.push_back(std::move(slot).value());
    }
    return lists;
  }

  // Lands commit-pool entry `k` and warms the head pair.
  Result<VersionId> Commit(size_t k) {
    version::ChangeSet changes = CommitPayload(fx_, k);
    std::string message = "c";
    message += std::to_string(k);
    Scope root(tracer_, "bench.commit");
    if (!decomposed_) {
      return service_.Commit(*fx_.kb, std::move(changes), "perfbench", message,
                             k + 1);
    }
    auto id = [&] {
      Scope span(tracer_, "version.commit");
      return fx_.kb->Commit(std::move(changes), "perfbench", message, k + 1);
    }();
    if (!id.ok()) return id.status();
    auto refreshed = [&] {
      Scope span(tracer_, "engine.refresh");
      return engine_.Refresh(*fx_.kb, context_);
    }();
    if (!refreshed.ok()) return refreshed.status();
    {
      Scope span(tracer_, "engine.shared_state");
      auto state = refreshed->evaluation->SharedStateFor(rec_);
      if (!state.ok()) return state.status();
    }
    auto reports = refreshed->evaluation->AllReports();
    if (!reports.ok()) return reports.status();
    NoteReportStats(*refreshed->evaluation, refreshed->version - 1,
                    refreshed->version);
    return refreshed->version;
  }

  // True the first time `before` is claimed for a cold rebuild.
  bool ClaimPair(VersionId before) {
    std::lock_guard<std::mutex> lock(mu_);
    return rebuilt_.insert(before).second;
  }

  // Rebuilds (v1, v2) cold through the layers' own public functions and
  // checks every measure report and the user's list against what the
  // engine served. False on any difference or failure.
  bool ColdRebuild(VersionId v1, VersionId v2,
                   const profile::HumanProfile& user, uint64_t served) {
    Scope root(tracer_, "bench.cold_rebuild");
    measures::VersionArtefacts sides[2];
    const VersionId versions[2] = {v1, v2};
    for (int i = 0; i < 2; ++i) {
      auto snapshot = [&] {
        Scope span(tracer_, "version.snapshot");
        return fx_.kb->SharedSnapshot(versions[i]);
      }();
      if (!snapshot.ok()) return false;
      measures::VersionArtefacts& side = sides[i];
      side.snapshot = std::move(snapshot).value();
      {
        Scope span(tracer_, "schema.view_build");
        side.view = std::make_shared<const schema::SchemaView>(
            schema::SchemaView::Build(*side.snapshot));
      }
      {
        Scope span(tracer_, "graph.schema_graph_build");
        side.graph = std::make_shared<const graph::SchemaGraph>(
            graph::SchemaGraph::Build(*side.view, side.view->classes()));
      }
      side.betweenness = std::make_shared<const measures::LazyBetweenness>(
          side.graph, context_, &engine_.pool());
      Scope span(tracer_, "graph.brandes");
      side.betweenness->Get();
    }
    auto ctx = [&] {
      Scope span(tracer_, "delta.context_build");
      return measures::EvolutionContext::Build(sides[0], sides[1], context_);
    }();
    if (!ctx.ok()) return false;
    auto evaluation = engine_.Evaluate(*fx_.kb, v1, v2, context_);
    if (!evaluation.ok()) return false;

    bool same = true;
    const auto measures = fx_.registry.CreateAll();
    std::vector<std::shared_ptr<const measures::MeasureReport>> reports;
    for (size_t i = 0; i < measures.size(); ++i) {
      auto report = [&] {
        Scope span(tracer_, ReportSpanNames()[i].c_str());
        return measures[i]->Compute(*ctx);
      }();
      if (!report.ok()) return false;
      auto served_report = (*evaluation)->Report(measures[i]->info().name);
      if (!served_report.ok() || !SameScores(*report, **served_report)) {
        same = false;
      }
      reports.push_back(std::make_shared<const measures::MeasureReport>(
          std::move(report).value()));
    }
    auto shared = [&] {
      Scope span(tracer_, "recommend.prepare_shared");
      return rec_.PrepareShared(*ctx, fx_.registry.List(), reports);
    }();
    if (!shared.ok()) return false;
    profile::HumanProfile prof = user;
    auto list = [&] {
      Scope span(tracer_, "recommend.for_user");
      return rec_.RecommendForUser(*shared, prof);
    }();
    NoteReportStats(**evaluation, v1, v2);
    return same && list.ok() && Digest(*list) == served;
  }

  // Latest report-memo counters of each pair's evaluation seen on the
  // decomposed path (measures.report_hit_ratio).
  std::map<std::pair<VersionId, VersionId>, measures::ReportCacheStats>
  report_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return report_stats_;
  }

 private:
  Result<std::shared_ptr<const recommend::SharedRunState>> SharedState(
      VersionId v1, VersionId v2) {
    auto evaluation = [&] {
      Scope span(tracer_, "engine.evaluate");
      return engine_.Evaluate(*fx_.kb, v1, v2, context_);
    }();
    if (!evaluation.ok()) return evaluation.status();
    auto state = [&] {
      Scope span(tracer_, "engine.shared_state");
      return (*evaluation)->SharedStateFor(rec_);
    }();
    NoteReportStats(**evaluation, v1, v2);
    return state;
  }

  void NoteReportStats(const engine::SharedEvaluation& evaluation,
                       VersionId v1, VersionId v2) {
    if (!decomposed_) return;
    std::lock_guard<std::mutex> lock(mu_);
    report_stats_[{v1, v2}] = evaluation.report_stats();
  }

  Fixture& fx_;
  const bool decomposed_;
  Tracer* const tracer_;
  engine::RecommendationService& service_;
  engine::EvaluationEngine& engine_;
  const recommend::Recommender& rec_;
  const measures::ContextOptions context_;
  mutable std::mutex mu_;
  std::set<VersionId> rebuilt_;
  std::map<std::pair<VersionId, VersionId>, measures::ReportCacheStats>
      report_stats_;
};

// A closed-loop reader client of hot_reads or history_scan.
void ReaderLoop(Server& server, Fixture& fx, Clock::time_point end,
                WindowResult& log) {
  const bool history = fx.spec->kind == WorkloadKind::kHistoryScan;
  size_t reads = 0;
  while (Clock::now() < end) {
    const uint64_t pick = fx.next_pick.fetch_add(1, std::memory_order_relaxed);
    uint32_t user = 0;
    VersionId v1 = 0;
    VersionId v2 = 0;
    if (history) {
      const HistoryPick& hp = fx.history_picks[pick % fx.history_picks.size()];
      user = hp.user;
      v1 = hp.before;
      v2 = v1 + 1;
    } else {
      user = static_cast<uint32_t>(fx.zipf_picks[pick % fx.zipf_picks.size()]);
      v2 = fx.acked_head.load(std::memory_order_acquire);
      v1 = v2 - 1;
    }
    profile::HumanProfile prof = fx.stream.users[user];
    const auto start = Clock::now();
    auto list = server.Read(v1, v2, prof);
    const auto done = Clock::now();
    ++log.attempted;
    if (!list.ok()) {
      ++log.failed;
      continue;
    }
    log.read_us.Add(MicrosBetween(start, done));
    ++log.users_served;
    const uint64_t digest = Digest(*list);
    log.served.Add({user, v2, digest});
    if (history && server.decomposed() && ++reads % kColdSample == 0 &&
        server.ClaimPair(v1)) {
      ++log.cold_rebuilds;
      if (!server.ColdRebuild(v1, v2, fx.stream.users[user], digest)) {
        ++log.cold_mismatches;
      }
    }
  }
}

// The open-loop committer beside the readers: commit k is due k commit
// periods after the window starts and is timed from then.
void CommitterLoop(Server& server, Fixture& fx, Clock::time_point start,
                   Clock::time_point end, WindowResult& log) {
  for (uint64_t k = 1;; ++k) {
    const auto due =
        start + std::chrono::microseconds(k * fx.spec->commit_period_us);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    log.late_us.Add(MicrosBetween(due, Clock::now()));
    auto id = server.Commit(fx.next_commit);
    const auto ack = Clock::now();
    ++log.attempted;
    if (!id.ok() || *id != fx.base_head + fx.next_commit + 1) {
      ++log.failed;
      continue;
    }
    log.commit_us.Add(MicrosBetween(due, ack));
    ++fx.next_commit;
    fx.acked_head.store(*id, std::memory_order_release);
  }
}

// live_feed's single closed-loop client: commit, then fan the new head
// pair out to every subscriber.
void LiveFeedLoop(Server& server, Fixture& fx, Clock::time_point end,
                  WindowResult& log) {
  std::vector<profile::HumanProfile*> subscribers;
  for (profile::HumanProfile& user : fx.stream.users) {
    subscribers.push_back(&user);
  }
  while (Clock::now() < end) {
    const auto issued = Clock::now();
    auto id = server.Commit(fx.next_commit);
    const auto ack = Clock::now();
    ++log.attempted;
    if (!id.ok() || *id != fx.base_head + fx.next_commit + 1) {
      ++log.failed;
      continue;
    }
    log.commit_us.Add(MicrosBetween(issued, ack));
    ++fx.next_commit;
    fx.acked_head.store(*id, std::memory_order_release);

    const VersionId v2 = *id;
    const auto start = Clock::now();
    auto lists = server.Batch(v2 - 1, v2, subscribers);
    const auto done = Clock::now();
    log.attempted += subscribers.size();
    if (!lists.ok()) {
      log.failed += subscribers.size();
      continue;
    }
    log.read_us.Add(MicrosBetween(start, done));
    log.users_served += lists->size();
    for (size_t i = 0; i < lists->size(); ++i) {
      log.served.Add({static_cast<uint32_t>(i), v2, Digest((*lists)[i])});
    }
  }
}

}  // namespace

const std::vector<std::string>& ReportSpanNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const measures::MeasureInfo& info :
         measures::DefaultRegistry().List()) {
      out.push_back("measures.report." + info.name);
    }
    return out;
  }();
  return names;
}

void Accumulate(WindowResult& into, WindowResult&& from) {
  into.elapsed_s += from.elapsed_s;
  into.users_served += from.users_served;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.cold_rebuilds += from.cold_rebuilds;
  into.cold_mismatches += from.cold_mismatches;
  into.read_us.Merge(from.read_us);
  into.commit_us.Merge(from.commit_us);
  into.late_us.Merge(from.late_us);
  into.served.Merge(std::move(from.served));
  into.report_stats.hits += from.report_stats.hits;
  into.report_stats.computations += from.report_stats.computations;
  into.report_stats.coalesced += from.report_stats.coalesced;
}

WindowResult RunWindow(Fixture& fx, Path path, double seconds,
                       Tracer* tracer) {
  Server server(fx, path, tracer);
  WindowResult total;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  if (fx.spec->kind == WorkloadKind::kLiveFeed) {
    LiveFeedLoop(server, fx, end, total);
  } else {
    std::vector<WindowResult> logs(fx.spec->readers + 1);
    std::vector<std::thread> threads;
    for (size_t r = 0; r < fx.spec->readers; ++r) {
      threads.emplace_back([&server, &fx, end, &log = logs[r]] {
        ReaderLoop(server, fx, end, log);
      });
    }
    threads.emplace_back([&server, &fx, start, end, &log = logs.back()] {
      CommitterLoop(server, fx, start, end, log);
    });
    for (std::thread& t : threads) t.join();
    for (WindowResult& log : logs) Accumulate(total, std::move(log));
  }
  total.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const auto& [pair, stats] : server.report_stats()) {
    total.report_stats.hits += stats.hits;
    total.report_stats.computations += stats.computations;
    total.report_stats.coalesced += stats.coalesced;
  }
  return total;
}

}  // namespace evorec::perfbench

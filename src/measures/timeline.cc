#include "measures/timeline.h"

#include <algorithm>

namespace evorec::measures {

Result<EvolutionTimeline> EvolutionTimeline::Compute(
    const version::KbView& view, const EvolutionMeasure& measure,
    version::VersionId first, version::VersionId last,
    ContextOptions options) {
  if (view.version_count() < 2) {
    return FailedPreconditionError(
        "timeline needs at least two versions");
  }
  const version::VersionId end =
      std::min<version::VersionId>(last, view.head());
  if (first >= end) {
    return InvalidArgumentError("empty version range for timeline");
  }
  std::vector<MeasureReport> reports;
  reports.reserve(end - first);
  for (version::VersionId v = first; v < end; ++v) {
    auto ctx = EvolutionContext::FromVersions(view, v, v + 1, options);
    if (!ctx.ok()) return ctx.status();
    auto report = measure.Compute(*ctx);
    if (!report.ok()) return report.status();
    reports.push_back(std::move(report).value());
  }
  return FromReports(std::move(reports));
}

Result<EvolutionTimeline> EvolutionTimeline::FromReports(
    std::vector<MeasureReport> reports) {
  if (reports.empty()) {
    return InvalidArgumentError("timeline needs at least one transition");
  }
  EvolutionTimeline timeline;
  std::vector<rdf::TermId> all_terms;
  for (const MeasureReport& report : reports) {
    for (const ScoredTerm& s : report.scores()) {
      all_terms.push_back(s.term);
    }
  }
  timeline.reports_ = std::move(reports);
  std::sort(all_terms.begin(), all_terms.end());
  all_terms.erase(std::unique(all_terms.begin(), all_terms.end()),
                  all_terms.end());
  timeline.terms_ = std::move(all_terms);
  return timeline;
}

std::vector<double> EvolutionTimeline::SeriesOf(rdf::TermId term) const {
  std::vector<double> series;
  series.reserve(reports_.size());
  for (const MeasureReport& report : reports_) {
    series.push_back(report.ScoreOf(term));
  }
  return series;
}

EvolutionTimeline::TrendStats EvolutionTimeline::TrendOf(
    rdf::TermId term) const {
  TrendStats stats;
  stats.term = term;
  const std::vector<double> series = SeriesOf(term);
  const size_t n = series.size();
  if (n == 0) return stats;

  double sum = 0.0;
  double max_value = series[0];
  size_t peak = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += series[i];
    if (series[i] > max_value) {
      max_value = series[i];
      peak = i;
    }
  }
  stats.mean = sum / static_cast<double>(n);
  stats.peak_transition = peak;
  stats.burstiness = stats.mean > 0.0 ? max_value / stats.mean : 0.0;

  if (n >= 2) {
    // Least squares on (i, series[i]).
    const double mean_x = static_cast<double>(n - 1) / 2.0;
    double cov = 0.0;
    double var_x = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double dx = static_cast<double>(i) - mean_x;
      cov += dx * (series[i] - stats.mean);
      var_x += dx * dx;
    }
    stats.slope = var_x > 0.0 ? cov / var_x : 0.0;
  }
  return stats;
}

namespace {

std::vector<EvolutionTimeline::TrendStats> TakeTop(
    std::vector<EvolutionTimeline::TrendStats> stats, size_t k,
    bool (*less)(const EvolutionTimeline::TrendStats&,
                 const EvolutionTimeline::TrendStats&)) {
  std::sort(stats.begin(), stats.end(), less);
  if (stats.size() > k) stats.resize(k);
  return stats;
}

}  // namespace

std::vector<EvolutionTimeline::TrendStats> EvolutionTimeline::TopTrending(
    size_t k) const {
  std::vector<TrendStats> stats;
  for (rdf::TermId term : terms_) {
    TrendStats t = TrendOf(term);
    if (t.mean > 0.0) stats.push_back(t);
  }
  return TakeTop(std::move(stats), k,
                 [](const TrendStats& a, const TrendStats& b) {
                   if (a.slope != b.slope) return a.slope > b.slope;
                   return a.term < b.term;
                 });
}

std::vector<EvolutionTimeline::TrendStats> EvolutionTimeline::TopBursty(
    size_t k) const {
  std::vector<TrendStats> stats;
  for (rdf::TermId term : terms_) {
    TrendStats t = TrendOf(term);
    if (t.mean > 0.0) stats.push_back(t);
  }
  return TakeTop(std::move(stats), k,
                 [](const TrendStats& a, const TrendStats& b) {
                   if (a.burstiness != b.burstiness) {
                     return a.burstiness > b.burstiness;
                   }
                   return a.term < b.term;
                 });
}

}  // namespace evorec::measures

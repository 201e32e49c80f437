#ifndef EVOREC_MEASURES_TIMELINE_H_
#define EVOREC_MEASURES_TIMELINE_H_

#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "measures/measure.h"
#include "version/kb_view.h"

namespace evorec::measures {

/// Per-term time series of one measure across consecutive version
/// transitions — the substrate for "observing change trends" (paper
/// §I): instead of one delta, the human sees how the intensity of
/// change around a class develops over the KB's history.
class EvolutionTimeline {
 public:
  /// One point of a term's series.
  struct TrendStats {
    rdf::TermId term = rdf::kAnyTerm;
    /// Least-squares slope of the series (per transition).
    double slope = 0.0;
    /// Mean score across transitions.
    double mean = 0.0;
    /// Burstiness: max / mean (1 for flat series, large for spikes);
    /// 0 when the series is all-zero.
    double burstiness = 0.0;
    /// Index of the transition with the highest score.
    size_t peak_transition = 0;
  };

  /// Computes `measure` over every consecutive pair (v, v+1) of `view`
  /// from version `first` to `last` (defaults: full history). Each
  /// transition builds its own EvolutionContext with `options` — the
  /// pair-keyed cold path, which rebuilds every middle version's
  /// artefacts twice. Prefer EvaluationEngine::Timeline, whose
  /// artefact cache builds each version's artefacts exactly once.
  static Result<EvolutionTimeline> Compute(
      const version::KbView& view, const EvolutionMeasure& measure,
      version::VersionId first = 0, version::VersionId last = UINT32_MAX,
      ContextOptions options = {});

  /// Assembles a timeline from per-transition reports computed
  /// elsewhere (reports[i] covers transition first+i → first+i+1) —
  /// the engine's chain-walk entry point. Fails on an empty sequence.
  static Result<EvolutionTimeline> FromReports(
      std::vector<MeasureReport> reports);

  /// Number of transitions covered.
  size_t transition_count() const { return reports_.size(); }

  /// The report of transition `i` (0 = first covered pair).
  const MeasureReport& report(size_t i) const { return reports_[i]; }

  /// The score series of `term` across transitions (0 where absent).
  std::vector<double> SeriesOf(rdf::TermId term) const;

  /// Trend statistics of `term`.
  TrendStats TrendOf(rdf::TermId term) const;

  /// Terms ranked by slope (strongest upward trend first).
  std::vector<TrendStats> TopTrending(size_t k) const;

  /// Terms ranked by burstiness (most spiky first; flat-zero series
  /// excluded).
  std::vector<TrendStats> TopBursty(size_t k) const;

 private:
  std::vector<MeasureReport> reports_;
  // Union of terms over all reports, sorted.
  std::vector<rdf::TermId> terms_;
};

}  // namespace evorec::measures

#endif  // EVOREC_MEASURES_TIMELINE_H_

#ifndef EVOREC_MEASURES_EVALUATION_H_
#define EVOREC_MEASURES_EVALUATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/single_flight.h"
#include "common/thread_pool.h"
#include "measures/measure.h"
#include "measures/measure_context.h"
#include "measures/registry.h"

namespace evorec::measures {

/// Counters describing the work a ReportCache performed, so tests and
/// benches can verify that serving N users over one context computes
/// every measure exactly once.
struct ReportCacheStats {
  uint64_t hits = 0;          ///< served from the memo
  uint64_t computations = 0;  ///< Compute() actually ran
  uint64_t coalesced = 0;     ///< joined an in-flight computation
};

/// The single-flight memo of MeasureReports of one EvolutionContext,
/// keyed by measure name and unbounded: concurrent requests for one
/// measure run Compute() once, failures are not cached, and reports
/// are shared out as shared_ptr<const>. Its `misses` are the
/// ReportCacheStats `computations`.
using ReportCache =
    SingleFlightCache<std::string, std::shared_ptr<const MeasureReport>>;

/// The memoized report of `measure` over `ctx`, computing it through
/// `cache` on the first request.
Result<std::shared_ptr<const MeasureReport>> CachedReport(
    ReportCache& cache, const EvolutionMeasure& measure,
    const EvolutionContext& ctx);

/// Registry-driven batch evaluation: the report of every registered
/// measure over `ctx`, in registration order, filling `cache` as it
/// goes. Measures already cached are not recomputed. When `pool` is
/// non-null the uncached measures evaluate in parallel. Fails if any
/// measure computation fails.
Result<std::vector<std::shared_ptr<const MeasureReport>>> EvaluateAll(
    const MeasureRegistry& registry, const EvolutionContext& ctx,
    ReportCache& cache, ThreadPool* pool = nullptr);

}  // namespace evorec::measures

#endif  // EVOREC_MEASURES_EVALUATION_H_

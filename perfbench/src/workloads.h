#ifndef EVOREC_PERFBENCH_WORKLOADS_H_
#define EVOREC_PERFBENCH_WORKLOADS_H_

// The timed windows of the three workloads.

#include <cstdint>
#include <string>
#include <vector>

#include "fixture.h"
#include "histogram.h"
#include "oracle.h"
#include "trace.h"

namespace evorec::perfbench {

/// How a window serves its operations.
enum class Path {
  /// Through RecommendationService, untraced: the end-to-end figures.
  kService,
  /// Through RecommendationService inside one root span per operation:
  /// compared with kService it gives the tracing overhead.
  kServiceTraced,
  /// Through the layers' public functions, each call inside its own
  /// span, in the order the service makes them (minus its admission
  /// and health bookkeeping): the per-layer figures. On history_scan a
  /// sample of reads also rebuilds its pair cold, layer by layer, and
  /// checks the result against the engine's.
  kDecomposed,
};

struct WindowResult {
  double elapsed_s = 0.0;
  uint64_t users_served = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Histogram read_us;    ///< per read call (Recommend or batch)
  Histogram commit_us;  ///< due (or issue) time to ack
  Histogram late_us;    ///< open-loop committer lateness
  ServedLog served;
  size_t cold_rebuilds = 0;
  size_t cold_mismatches = 0;
  /// Report-memo counters summed over the evaluations the decomposed
  /// path touched (latest reading per version pair).
  measures::ReportCacheStats report_stats;
};

/// "measures.report.<name>" for each measure of
/// measures::DefaultRegistry(), in registration order. The strings live
/// for the whole process, as recorded span names must.
const std::vector<std::string>& ReportSpanNames();

/// Adds `from`'s counts, samples, served lists and elapsed time to
/// `into`.
void Accumulate(WindowResult& into, WindowResult&& from);

/// Runs one timed window of `seconds` on `fx`. `tracer` is required by
/// the traced paths and ignored by kService.
WindowResult RunWindow(Fixture& fx, Path path, double seconds,
                       Tracer* tracer);

}  // namespace evorec::perfbench

#endif  // EVOREC_PERFBENCH_WORKLOADS_H_

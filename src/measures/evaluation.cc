#include "measures/evaluation.h"

#include <utility>

namespace evorec::measures {

Result<std::shared_ptr<const MeasureReport>> CachedReport(
    ReportCache& cache, const EvolutionMeasure& measure,
    const EvolutionContext& ctx) {
  return cache.GetOrBuild(
      measure.info().name,
      [&]() -> Result<std::shared_ptr<const MeasureReport>> {
        Result<MeasureReport> computed = measure.Compute(ctx);
        if (!computed.ok()) return computed.status();
        return std::make_shared<const MeasureReport>(
            std::move(computed).value());
      });
}

Result<std::vector<std::shared_ptr<const MeasureReport>>> EvaluateAll(
    const MeasureRegistry& registry, const EvolutionContext& ctx,
    ReportCache& cache, ThreadPool* pool) {
  const std::vector<std::unique_ptr<EvolutionMeasure>> measures =
      registry.CreateAll();
  std::vector<Result<std::shared_ptr<const MeasureReport>>> slots(
      measures.size(), Result<std::shared_ptr<const MeasureReport>>(
                           InternalError("measure not evaluated")));
  auto evaluate_one = [&](size_t i) {
    slots[i] = CachedReport(cache, *measures[i], ctx);
  };
  if (pool != nullptr) {
    pool->ParallelFor(measures.size(), evaluate_one);
  } else {
    for (size_t i = 0; i < measures.size(); ++i) evaluate_one(i);
  }

  std::vector<std::shared_ptr<const MeasureReport>> reports;
  reports.reserve(slots.size());
  for (Result<std::shared_ptr<const MeasureReport>>& slot : slots) {
    if (!slot.ok()) return slot.status();
    reports.push_back(std::move(slot).value());
  }
  return reports;
}

}  // namespace evorec::measures

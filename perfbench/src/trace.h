#ifndef EVOREC_PERFBENCH_TRACE_H_
#define EVOREC_PERFBENCH_TRACE_H_

// Bench-side span recorder. Spans are recorded only around the
// benchmark's own calls into the library's public functions; each
// holds a name, start, end, parent span and request id. Spans stay in
// per-thread memory buffers and are aggregated when the run ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace evorec::perfbench {

uint64_t NowNs();

struct Span {
  const char* name = nullptr;  ///< static or fixture-owned string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a request's root span
  uint64_t request = 0;  ///< shared by every span of one request
};

/// Per-name aggregate of recorded spans.
struct SpanTotals {
  uint64_t count = 0;
  double busy_us = 0.0;  ///< summed span durations
  double self_us = 0.0;  ///< summed durations minus child coverage
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records one span; called by Scope. Thread-safe.
  void Record(const Span& span);

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Aggregates every recorded span by name. Self time is a span's
  /// duration minus the union of its children's intervals (children
  /// running in parallel are not double-subtracted).
  std::map<std::string, SpanTotals> Aggregate() const;

  /// Summed duration of root spans (parent == 0): the request time
  /// every share is relative to.
  double RootBusyUs() const;

 private:
  std::vector<Span>& BufferForThisThread();

  const uint64_t serial_;  ///< distinguishes tracers for thread buffers
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
  std::atomic<uint64_t> next_id_{0};
};

/// RAII span. A null tracer makes it a no-op. The default constructor
/// form nests under the calling thread's current span (or starts a new
/// request when there is none); the explicit form attaches to a parent
/// recorded on another thread (parallel fan-out bodies).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name);
  Scope(Tracer* tracer, const char* name, uint64_t parent, uint64_t request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint64_t id() const { return span_.id; }
  uint64_t request() const { return span_.request; }

 private:
  void Open(Tracer* tracer, const char* name, uint64_t parent,
            uint64_t request);

  Tracer* tracer_;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

}  // namespace evorec::perfbench

#endif  // EVOREC_PERFBENCH_TRACE_H_

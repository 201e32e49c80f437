#include "trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace evorec::perfbench {
namespace {

// The calling thread's innermost open span and its request.
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

std::atomic<uint64_t> g_tracer_serial{0};

// The thread's buffer in the tracer it last recorded into.
thread_local uint64_t t_buffer_owner = 0;
thread_local std::vector<Span>* t_buffer = nullptr;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() : serial_(g_tracer_serial.fetch_add(1) + 1) {}

std::vector<Span>& Tracer::BufferForThisThread() {
  if (t_buffer_owner != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 14);
    t_buffer = buffers_.back().get();
    t_buffer_owner = serial_;
  }
  return *t_buffer;
}

void Tracer::Record(const Span& span) { BufferForThisThread().push_back(span); }

double Tracer::RootBusyUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& buffer : buffers_) {
    for (const Span& span : *buffer) {
      if (span.parent == 0) total += (span.end_ns - span.start_ns) / 1e3;
    }
  }
  return total;
}

std::map<std::string, SpanTotals> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const auto& buffer : buffers_) {
    for (const Span& span : *buffer) {
      if (span.parent != 0) children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const auto& buffer : buffers_) {
    for (const Span& span : *buffer) {
      const uint64_t duration = span.end_ns - span.start_ns;
      uint64_t covered = 0;
      auto it = children.find(span.id);
      if (it != children.end()) {
        intervals.clear();
        for (const Span* child : it->second) {
          const uint64_t lo = std::max(child->start_ns, span.start_ns);
          const uint64_t hi = std::min(child->end_ns, span.end_ns);
          if (hi > lo) intervals.emplace_back(lo, hi);
        }
        std::sort(intervals.begin(), intervals.end());
        uint64_t reach = 0;
        for (const auto& [lo, hi] : intervals) {
          const uint64_t from = std::max(lo, reach);
          if (hi > from) covered += hi - from;
          reach = std::max(reach, hi);
        }
      }
      SpanTotals& t = totals[span.name];
      ++t.count;
      t.busy_us += duration / 1e3;
      t.self_us += (duration - std::min(covered, duration)) / 1e3;
    }
  }
  return totals;
}

Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Open(tracer, name, t_current_span,
       t_current_span == 0 ? 0 : t_current_request);
}

Scope::Scope(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Open(tracer, name, parent, request);
}

void Scope::Open(Tracer* tracer, const char* name, uint64_t parent,
                 uint64_t request) {
  span_.name = name;
  span_.id = tracer->NextId();
  span_.parent = parent;
  span_.request = request == 0 ? span_.id : request;
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = span_.id;
  t_current_request = span_.request;
  span_.start_ns = NowNs();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  tracer_->Record(span_);
}

}  // namespace evorec::perfbench

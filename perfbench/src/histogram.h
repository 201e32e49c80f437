#ifndef EVOREC_PERFBENCH_HISTOGRAM_H_
#define EVOREC_PERFBENCH_HISTOGRAM_H_

// Fixed-memory latency histogram: log-spaced buckets 0.1% wide from
// 0.1 us to 1000 s, so the benchmark's own footprint does not grow
// with the number of requests it times (peak_rss_mb stays the
// program's). Quantiles are exact to within half a bucket (0.05%).
// The library's LatencyRecorder bounds its error at 1/32 (~3%), too
// coarse for figures whose run-to-run differences are a few percent.

#include <cmath>
#include <cstdint>
#include <vector>

namespace evorec::perfbench {

class Histogram {
 public:
  void Add(double us) {
    if (buckets_.empty()) buckets_.assign(kBuckets, 0);
    const double pos = us > kMinUs ? std::log(us / kMinUs) / kLogGrowth : 0.0;
    const size_t i = pos < static_cast<double>(kBuckets - 1)
                         ? static_cast<size_t>(pos)
                         : kBuckets - 1;
    ++buckets_[i];
    ++count_;
  }

  void Merge(const Histogram& other) {
    if (other.count_ == 0) return;
    if (buckets_.empty()) buckets_.assign(kBuckets, 0);
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// The q-quantile (0 when empty): the geometric centre of the bucket
  /// holding the sample of rank q * (count - 1).
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (static_cast<double>(seen) > rank) {
        return kMinUs * std::exp((static_cast<double>(i) + 0.5) * kLogGrowth);
      }
    }
    return kMinUs * std::exp(static_cast<double>(kBuckets) * kLogGrowth);
  }

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kLogGrowth = 0.00099950033308353;  // ln(1.001)
  static constexpr size_t kBuckets = 23040;  // up to ~1000 s

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

}  // namespace evorec::perfbench

#endif  // EVOREC_PERFBENCH_HISTOGRAM_H_

#ifndef EVOREC_COMMON_RANDOM_H_
#define EVOREC_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace evorec {

/// Deterministic, fast PRNG (xoshiro256**) seeded via SplitMix64.
/// All stochastic components of the library (workload generators,
/// sampled betweenness, tie-breaking) draw from this class so that
/// every experiment is reproducible from a single seed.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit draw.
  uint64_t Next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [0, n) with exponent `s` (>0). Rank 0 is
  /// the most probable. Uses a cached CDF when called repeatedly with
  /// the same (n, s); cost is O(log n) per draw after O(n) setup.
  size_t Zipf(size_t n, double s);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher–Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    if (values.empty()) return;
    for (size_t i = values.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      using std::swap;
      swap(values[i], values[j]);
    }
  }

  /// Draws an index from an unnormalised non-negative weight vector.
  /// Returns weights.size() if all weights are zero.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
  // Cached Zipf CDF for the last (n, s) pair.
  size_t zipf_n_ = 0;
  double zipf_s_ = 0.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace evorec

#endif  // EVOREC_COMMON_RANDOM_H_

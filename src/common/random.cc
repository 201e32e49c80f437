#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace evorec {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t draw = Next();
  while (draw >= limit) {
    draw = Next();
  }
  return lo + static_cast<int64_t>(draw % span);
}

double Rng::UniformDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

size_t Rng::Zipf(size_t n, double s) {
  if (n == 0) return 0;
  if (n != zipf_n_ || s != zipf_s_) {
    zipf_n_ = n;
    zipf_s_ = s;
    zipf_cdf_.resize(n);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      zipf_cdf_[i] = acc;
    }
    for (size_t i = 0; i < n; ++i) {
      zipf_cdf_[i] /= acc;
    }
  }
  const double u = UniformDouble();
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  if (it == zipf_cdf_.end()) return n - 1;
  return static_cast<size_t>(it - zipf_cdf_.begin());
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k > n) k = n;
  std::vector<size_t> out;
  out.reserve(k);
  if (k * 3 >= n) {
    // Dense case: shuffle a full index vector and take a prefix.
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    Shuffle(all);
    out.assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(k));
    return out;
  }
  // Sparse case: rejection with a hash set.
  std::unordered_set<size_t> seen;
  while (out.size() < k) {
    size_t candidate =
        static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
    if (seen.insert(candidate).second) {
      out.push_back(candidate);
    }
  }
  return out;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) return weights.size();
  double target = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace evorec

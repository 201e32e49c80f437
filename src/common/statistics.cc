#include "common/statistics.h"

#include <algorithm>
#include <numeric>

namespace evorec {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Min(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  if (p >= 100.0) return values.back();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double Gini(std::vector<double> values) {
  if (values.size() < 2) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  double weighted = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    weighted += (static_cast<double>(i) + 1.0) * values[i];
    total += values[i];
  }
  if (total <= 0.0) return 0.0;
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

double JaccardSimilarity(std::vector<uint32_t> a, std::vector<uint32_t> b) {
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  if (a.empty() && b.empty()) return 1.0;
  std::vector<uint32_t> inter;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  const double union_size =
      static_cast<double>(a.size() + b.size() - inter.size());
  if (union_size <= 0.0) return 1.0;
  return static_cast<double>(inter.size()) / union_size;
}

double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  // O(n^2) tau-a: fine for the ranking sizes evorec compares (<= a few
  // thousand classes).
  int64_t concordant = 0;
  int64_t discordant = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      const double prod = da * db;
      if (prod > 0.0) {
        ++concordant;
      } else if (prod < 0.0) {
        ++discordant;
      }
    }
  }
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  return static_cast<double>(concordant - discordant) / pairs;
}

}  // namespace evorec

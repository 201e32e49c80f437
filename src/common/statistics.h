#ifndef EVOREC_COMMON_STATISTICS_H_
#define EVOREC_COMMON_STATISTICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace evorec {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Minimum; 0 for empty input.
double Min(const std::vector<double>& values);

/// Maximum; 0 for empty input.
double Max(const std::vector<double>& values);

/// Linear-interpolated percentile, p in [0,100]; 0 for empty input.
double Percentile(std::vector<double> values, double p);

/// Gini coefficient of a non-negative distribution, in [0,1]; 0 denotes
/// perfect equality. Used as the inequality diagnostic for group
/// fairness experiments (E7).
double Gini(std::vector<double> values);

/// Jaccard similarity |a ∩ b| / |a ∪ b| of two id sets (unsorted input
/// allowed); 1 when both are empty.
double JaccardSimilarity(std::vector<uint32_t> a, std::vector<uint32_t> b);

/// Kendall tau-a rank correlation between two equally-sized score
/// vectors indexed by the same items, in [-1,1]. Used to compare
/// rankings produced by different evolution measures (E4).
double KendallTau(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace evorec

#endif  // EVOREC_COMMON_STATISTICS_H_

#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace sf::sim {

double mean(std::span<const double> values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0;
  const double m = mean(values);
  double sum = 0;
  for (double v : values) sum += (v - m) * (v - m);
  return std::sqrt(sum / static_cast<double>(values.size() - 1));
}

double max_value(std::span<const double> values) {
  return values.empty() ? 0
                        : *std::max_element(values.begin(), values.end());
}

double min_value(std::span<const double> values) {
  return values.empty() ? 0
                        : *std::min_element(values.begin(), values.end());
}

double percentile(std::span<const double> values, double p) {
  // Out-of-range p clamps to the extremes, which need no sorted copy.
  if (!values.empty() && p <= 0) return min_value(values);
  if (!values.empty() && p >= 100) return max_value(values);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0;  // documented: empty input yields 0
  if (std::isnan(p)) return std::numeric_limits<double>::quiet_NaN();
  if (sorted.size() == 1) return sorted.front();
  // The clamps also dodge the rank == size-1 boundary of the
  // interpolation below.
  if (p <= 0) return sorted.front();
  if (p >= 100) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double fairness_index(std::span<const double> values) {
  if (values.empty()) return 1.0;
  double sum = 0;
  double sum_sq = 0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0) return 1.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace sf::sim

// Summary statistics helpers used by the simulators and benches.

#pragma once

#include <cstddef>
#include <span>

namespace sf::sim {

double mean(std::span<const double> values);
double stddev(std::span<const double> values);
double max_value(std::span<const double> values);
double min_value(std::span<const double> values);

/// Percentile by linear interpolation. p is clamped to [0, 100] (p <= 0
/// yields the minimum, p >= 100 the maximum); an empty span yields 0, a
/// single element is returned for any p, and a NaN p yields NaN.
double percentile(std::span<const double> values, double p);

/// percentile() over values already sorted ascending: the one place the
/// rank and the interpolation are written. Many percentiles of one sample
/// then cost one sort.
double percentile_sorted(std::span<const double> sorted, double p);

/// Jain's fairness index: 1.0 means perfectly balanced shares.
double fairness_index(std::span<const double> values);

}  // namespace sf::sim

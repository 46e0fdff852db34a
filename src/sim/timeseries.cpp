#include "sim/timeseries.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "sim/table_printer.hpp"

namespace sf::sim {

double TimeSeries::min_value() const {
  double out = std::numeric_limits<double>::infinity();
  for (const auto& [t, v] : points_) out = std::min(out, v);
  return out;
}

double TimeSeries::max_value() const {
  double out = -std::numeric_limits<double>::infinity();
  for (const auto& [t, v] : points_) out = std::max(out, v);
  return out;
}

double TimeSeries::mean_value() const {
  if (points_.empty()) return 0;
  double sum = 0;
  for (const auto& [t, v] : points_) sum += v;
  return sum / static_cast<double>(points_.size());
}

std::vector<double> TimeSeries::downsample(std::size_t buckets) const {
  std::vector<double> out;
  if (points_.empty() || buckets == 0) return out;
  buckets = std::min(buckets, points_.size());
  out.reserve(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t begin = b * points_.size() / buckets;
    const std::size_t end =
        std::max(begin + 1, (b + 1) * points_.size() / buckets);
    double sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += points_[i].second;
    out.push_back(sum / static_cast<double>(end - begin));
  }
  return out;
}

std::string sparkline(const TimeSeries& series, std::size_t width) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  const std::vector<double> samples = series.downsample(width);
  if (samples.empty()) return series.name() + ": (empty)";
  const double lo = *std::min_element(samples.begin(), samples.end());
  const double hi = *std::max_element(samples.begin(), samples.end());
  std::string bars;
  for (double v : samples) {
    const double norm = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    bars += kLevels[std::min<std::size_t>(7, static_cast<std::size_t>(
                                                 norm * 7.999))];
  }
  return series.name() + ": " + bars +
         format("  [min %.3g  mean %.3g  max %.3g]", series.min_value(),
                series.mean_value(), series.max_value());
}

std::string to_csv(const std::vector<const TimeSeries*>& series) {
  std::ostringstream out;
  out << "time";
  for (const TimeSeries* s : series) out << "," << s->name();
  out << "\n";
  std::size_t rows = 0;
  for (const TimeSeries* s : series) {
    rows = std::max(rows, s->points().size());
  }
  for (std::size_t i = 0; i < rows; ++i) {
    bool wrote_time = false;
    std::ostringstream line;
    for (const TimeSeries* s : series) {
      if (!wrote_time && i < s->points().size()) {
        line << s->points()[i].first;
        wrote_time = true;
      }
    }
    for (const TimeSeries* s : series) {
      line << ",";
      if (i < s->points().size()) line << s->points()[i].second;
    }
    out << line.str() << "\n";
  }
  return out.str();
}

}  // namespace sf::sim

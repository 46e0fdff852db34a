#include "telemetry/registry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "net/hash.hpp"
#include "sim/stats.hpp"

namespace sf::telemetry {

Histogram::Histogram(Config config) : config_(config) {
  if (config_.buckets == 0) config_.buckets = 1;
  if (config_.growth <= 1.0) config_.growth = 2.0;
  if (config_.min_value <= 0) config_.min_value = 1e-3;
  counts_.assign(config_.buckets + 1, 0);
  reservoir_.reserve(config_.reservoir);
}

void Histogram::record(double value) {
  if (!std::isfinite(value)) return;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;

  std::size_t bucket = 0;
  if (value > config_.min_value) {
    if (value == last_value_) {
      bucket = last_bucket_;
    } else {
      bucket = static_cast<std::size_t>(
          std::ceil(std::log(value / config_.min_value) /
                    std::log(config_.growth)));
      bucket = std::min(bucket, config_.buckets);  // overflow slot
      last_value_ = value;
      last_bucket_ = bucket;
    }
  }
  ++counts_[bucket];

  // Deterministic reservoir sampling: position drawn from a hash of the
  // running count, so replays reproduce the same percentile estimates.
  if (config_.reservoir > 0) {
    if (reservoir_.size() < config_.reservoir) {
      reservoir_.push_back(value);
    } else {
      const std::uint64_t slot = net::mix64(count_) % count_;
      if (slot < reservoir_.size()) reservoir_[slot] = value;
    }
  }
}

double Histogram::min() const { return count_ == 0 ? 0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0 : max_; }
double Histogram::mean() const {
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

double Histogram::percentile(double p) const {
  return sim::percentile(reservoir_, p);
}

void Histogram::percentiles(std::span<const double> ps,
                            std::span<double> out) const {
  std::vector<double> sorted(reservoir_);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = sim::percentile_sorted(sorted, ps[i]);
  }
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> out;
  out.reserve(counts_.size());
  double edge = config_.min_value;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const bool overflow = i + 1 == counts_.size();
    out.push_back({overflow ? std::numeric_limits<double>::infinity() : edge,
                   counts_[i]});
    edge *= config_.growth;
  }
  return out;
}

std::uint64_t Snapshot::counter(const std::string& name,
                                std::uint64_t fallback) const {
  auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

const HistogramSnapshot* Snapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

double Snapshot::gauge(const std::string& name, double fallback) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

void Snapshot::merge(const Snapshot& other, const std::string& prefix) {
  for (const auto& [name, value] : other.counters) {
    counters[prefix + name] += value;
  }
  // Gauges are levels, not rates: merging same-named gauges sums them
  // (fleet views namespace per-device gauges with `prefix`, so collisions
  // only happen when the caller wants an aggregate level).
  for (const auto& [name, value] : other.gauges) {
    gauges[prefix + name] += value;
  }
  for (const auto& [name, hist] : other.histograms) {
    auto [it, inserted] = histograms.try_emplace(prefix + name, hist);
    if (inserted) continue;
    HistogramSnapshot& mine = it->second;
    if (hist.count > 0) {
      mine.min = mine.count == 0 ? hist.min : std::min(mine.min, hist.min);
      mine.max = mine.count == 0 ? hist.max : std::max(mine.max, hist.max);
    }
    if (hist.count > mine.count) {  // keep the better-sampled percentiles
      mine.p50 = hist.p50;
      mine.p90 = hist.p90;
      mine.p99 = hist.p99;
    }
    mine.count += hist.count;
    mine.sum += hist.sum;
    if (mine.buckets.size() == hist.buckets.size()) {
      for (std::size_t i = 0; i < mine.buckets.size(); ++i) {
        mine.buckets[i].count += hist.buckets[i].count;
      }
    }
  }
}

Snapshot Snapshot::delta(const Snapshot& earlier, const Snapshot& later) {
  Snapshot out;
  for (const auto& [name, value] : later.counters) {
    const std::uint64_t before = earlier.counter(name);
    out.counters[name] = value >= before ? value - before : 0;
  }
  // A level does not difference: the delta carries the later level as-is.
  out.gauges = later.gauges;
  for (const auto& [name, hist] : later.histograms) {
    HistogramSnapshot d = hist;  // min/max/percentiles stay from `later`
    if (const HistogramSnapshot* before = earlier.histogram(name)) {
      d.count = hist.count >= before->count ? hist.count - before->count : 0;
      d.sum = hist.sum - before->sum;
      if (d.buckets.size() == before->buckets.size()) {
        for (std::size_t i = 0; i < d.buckets.size(); ++i) {
          const std::uint64_t b = before->buckets[i].count;
          d.buckets[i].count =
              d.buckets[i].count >= b ? d.buckets[i].count - b : 0;
        }
      }
    }
    out.histograms[name] = std::move(d);
  }
  return out;
}

Counter& Registry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(const std::string& name,
                               Histogram::Config config) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(config))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.count = hist->count();
    h.sum = hist->sum();
    h.min = hist->min();
    h.max = hist->max();
    constexpr std::array<double, 3> kPercentiles = {50, 90, 99};
    std::array<double, 3> at{};
    hist->percentiles(kPercentiles, at);
    h.p50 = at[0];
    h.p90 = at[1];
    h.p99 = at[2];
    h.buckets = hist->buckets();
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

}  // namespace sf::telemetry

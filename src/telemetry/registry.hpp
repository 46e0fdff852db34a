// sf::telemetry — the always-on observability layer (§6 operational story).
//
// The gateway's operators watch per-table hit rates, per-pipeline load
// balance and hardware/software traffic share continuously; the library
// therefore exposes cheap monotonic counters and bounded log-bucketed
// histograms behind a named Registry. Rates are *derived*, not stored:
// take a Snapshot, take another later, and Snapshot::delta() yields the
// per-interval numbers the figures plot. Instruments are single-threaded
// like the rest of the simulator; one Registry per device composes into
// fleet views via Snapshot::merge().

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sf::telemetry {

/// A monotonic event/byte counter. Only add(); rate = snapshot delta.
class Counter {
 public:
  void add(std::uint64_t amount = 1) { value_ += amount; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time level — queue occupancy, table fill, high watermarks.
/// Unlike a Counter it moves both ways: set() overwrites, and a snapshot
/// captures the level as of that instant (delta keeps the later level
/// rather than differencing — a level is not a rate).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Bounded log-bucketed histogram for latency/size-style values.
///
/// Bucket i covers (min_value * growth^(i-1), min_value * growth^i]; one
/// extra overflow bucket catches everything above the last edge, so memory
/// is fixed regardless of the stream. A small deterministic reservoir of
/// raw samples backs percentile() (via sim::percentile), which log buckets
/// alone cannot answer accurately.
class Histogram {
 public:
  struct Config {
    double min_value = 1e-3;   // upper edge of bucket 0
    double growth = 2.0;       // edge multiplier per bucket
    std::size_t buckets = 48;  // plus the implicit overflow bucket
    std::size_t reservoir = 512;
  };

  struct Bucket {
    double upper_edge = 0;  // +inf for the overflow bucket
    std::uint64_t count = 0;
  };

  Histogram() : Histogram(Config{}) {}
  explicit Histogram(Config config);

  void record(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;
  double max() const;
  double mean() const;

  /// Percentile estimate over the retained reservoir; p in [0, 100].
  double percentile(double p) const;
  /// percentile(ps[i]) into out[i] for each i, from one sorted copy of
  /// the reservoir.
  void percentiles(std::span<const double> ps, std::span<double> out) const;

  /// Bucket counts, overflow bucket last.
  std::vector<Bucket> buckets() const;

  const Config& config() const { return config_; }

 private:
  Config config_;
  std::vector<std::uint64_t> counts_;  // buckets + 1 overflow slot
  std::vector<double> reservoir_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  // Memo of the last bucket computation: recorded values repeat heavily
  // (identical packets produce identical latencies), and the memo skips
  // the log() on a repeat without changing any result.
  double last_value_ = 0;
  std::size_t last_bucket_ = 0;
};

/// Point-in-time value of one histogram inside a Snapshot. Percentiles are
/// computed at snapshot time from the live reservoir.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  std::vector<Histogram::Bucket> buckets;
};

/// A point-in-time copy of every instrument in a Registry. Plain data:
/// cheap to keep, diff and merge.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Point-in-time levels. Empty for registries without gauges, so
  /// snapshots (and every exporter rendering) of counter-only registries
  /// are byte-identical to pre-gauge builds.
  std::map<std::string, double> gauges;

  std::uint64_t counter(const std::string& name,
                        std::uint64_t fallback = 0) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
  double gauge(const std::string& name, double fallback = 0) const;

  /// Sums `other` into this snapshot, optionally namespacing its names
  /// with `prefix` — fleet aggregation ("cluster0." + device counters).
  /// Histogram buckets add bucketwise when shapes match; min/max widen;
  /// percentiles are kept from the larger-count side (approximation).
  void merge(const Snapshot& other, const std::string& prefix = "");

  /// later - earlier, counter-wise and bucket-wise, clamped at zero.
  /// Names absent from `earlier` count from zero; histogram min/max and
  /// percentiles are taken from `later` (they do not difference).
  static Snapshot delta(const Snapshot& earlier, const Snapshot& later);
};

/// Named instrument registry. counter()/histogram() get-or-create; the
/// returned references stay valid for the registry's lifetime, so hot
/// paths resolve a name once and keep the pointer.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name,
                       Histogram::Config config = {});
  Gauge& gauge(const std::string& name);

  bool has_counter(const std::string& name) const {
    return counters_.contains(name);
  }
  bool has_gauge(const std::string& name) const {
    return gauges_.contains(name);
  }
  /// Const read of a gauge's current level; 0 when absent.
  double gauge_value(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second->value();
  }
  /// Const read of a counter's current value; 0 when absent.
  std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
  }
  std::size_t instrument_count() const {
    return counters_.size() + histograms_.size() + gauges_.size();
  }

  /// Visits every counter in name order. The Counter& handles are stable
  /// for the registry's lifetime — callers may keep the pointers.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (const auto& [name, counter] : counters_) fn(name, *counter);
  }

  Snapshot snapshot() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace sf::telemetry

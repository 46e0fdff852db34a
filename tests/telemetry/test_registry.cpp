#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace sf::telemetry {
namespace {

TEST(Counter, AddsMonotonically) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Registry, GetOrCreateReturnsStableReferences) {
  Registry registry;
  Counter& a = registry.counter("pkts");
  a.add(7);
  Counter& b = registry.counter("pkts");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_TRUE(registry.has_counter("pkts"));
  EXPECT_FALSE(registry.has_counter("other"));
  EXPECT_EQ(registry.counter_value("pkts"), 7u);
  EXPECT_EQ(registry.counter_value("other"), 0u);

  registry.histogram("lat");
  EXPECT_EQ(registry.instrument_count(), 2u);
}

TEST(Histogram, TracksMomentsAndExtremes) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.mean(), 0.0);

  hist.record(1.0);
  hist.record(3.0);
  hist.record(2.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 6.0);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 2.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100), 3.0);
}

// A snapshot reads p50/p90/p99 from one sorted copy of the reservoir;
// each must be bit-equal to its own percentile() call, whatever the
// reservoir size, with heavy duplication.
TEST(Histogram, SnapshotPercentilesMatchSeparateCalls) {
  for (const std::size_t size : {0u, 1u, 2u, 511u, 512u}) {
    Registry registry;
    Histogram& hist = registry.histogram("lat");
    for (std::size_t i = 0; i < size; ++i) {
      hist.record(0.25 * static_cast<double>((i * 7) % 13) + 1.0 / 3.0);
    }
    const HistogramSnapshot snap = registry.snapshot().histograms.at("lat");
    SCOPED_TRACE(size);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snap.p50),
              std::bit_cast<std::uint64_t>(hist.percentile(50)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snap.p90),
              std::bit_cast<std::uint64_t>(hist.percentile(90)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snap.p99),
              std::bit_cast<std::uint64_t>(hist.percentile(99)));
  }
}

TEST(Histogram, LogBucketsBoundMemoryAndCatchOverflow) {
  Histogram::Config config;
  config.min_value = 1.0;
  config.growth = 2.0;
  config.buckets = 3;  // edges 1, 2, 4 (+ overflow)
  Histogram hist(config);

  hist.record(0.5);    // <= 1 -> bucket 0
  hist.record(1.5);    // <= 2 -> bucket 1
  hist.record(3.0);    // <= 4 -> bucket 2
  hist.record(1e9);    // overflow

  const auto buckets = hist.buckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets[0].upper_edge, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].upper_edge, 2.0);
  EXPECT_DOUBLE_EQ(buckets[2].upper_edge, 4.0);
  EXPECT_TRUE(std::isinf(buckets[3].upper_edge));
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_EQ(buckets[2].count, 1u);
  EXPECT_EQ(buckets[3].count, 1u);
}

TEST(Snapshot, DeltaYieldsRates) {
  Registry registry;
  Counter& pkts = registry.counter("pkts");
  Histogram& lat = registry.histogram("lat");

  pkts.add(100);
  lat.record(1.0);
  const Snapshot earlier = registry.snapshot();

  pkts.add(25);
  lat.record(2.0);
  lat.record(3.0);
  const Snapshot later = registry.snapshot();

  const Snapshot diff = Snapshot::delta(earlier, later);
  EXPECT_EQ(diff.counter("pkts"), 25u);
  EXPECT_EQ(diff.counter("missing", 7u), 7u);
  ASSERT_NE(diff.histogram("lat"), nullptr);
  EXPECT_EQ(diff.histogram("lat")->count, 2u);

  // Names only present in `later` count from zero; a (hypothetical)
  // regression never goes negative.
  const Snapshot clamped = Snapshot::delta(later, earlier);
  EXPECT_EQ(clamped.counter("pkts"), 0u);
}

TEST(Gauge, MovesBothWaysAndSnapshotsTheLevel) {
  Registry registry;
  Gauge& occupancy = registry.gauge("queue.occupancy");
  occupancy.set(0.75);
  occupancy.set(0.25);  // unlike a counter, levels go down too
  EXPECT_DOUBLE_EQ(registry.gauge_value("queue.occupancy"), 0.25);
  EXPECT_TRUE(registry.has_gauge("queue.occupancy"));
  EXPECT_FALSE(registry.has_gauge("other"));
  EXPECT_EQ(&occupancy, &registry.gauge("queue.occupancy"));

  const Snapshot snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.gauge("queue.occupancy"), 0.25);
  EXPECT_DOUBLE_EQ(snapshot.gauge("missing", 7.0), 7.0);
}

TEST(Gauge, DeltaKeepsTheLaterLevelNotADifference) {
  Registry registry;
  registry.gauge("fill").set(0.9);
  const Snapshot earlier = registry.snapshot();
  registry.gauge("fill").set(0.4);
  const Snapshot later = registry.snapshot();

  // A level is not a rate: the delta reports where the gauge *is* now.
  const Snapshot diff = Snapshot::delta(earlier, later);
  EXPECT_DOUBLE_EQ(diff.gauge("fill"), 0.4);
}

TEST(Gauge, MergeNamespacesPerDeviceLevels) {
  Registry device0;
  Registry device1;
  device0.gauge("table.fill").set(0.5);
  device1.gauge("table.fill").set(0.25);

  Snapshot fleet;
  fleet.merge(device0.snapshot(), "dev0.");
  fleet.merge(device1.snapshot(), "dev1.");
  EXPECT_DOUBLE_EQ(fleet.gauge("dev0.table.fill"), 0.5);
  EXPECT_DOUBLE_EQ(fleet.gauge("dev1.table.fill"), 0.25);
}

TEST(Snapshot, MergePrefixesAndSums) {
  Registry device0;
  Registry device1;
  device0.counter("pkts").add(10);
  device1.counter("pkts").add(32);

  Snapshot fleet;
  fleet.merge(device0.snapshot(), "dev0.");
  fleet.merge(device1.snapshot(), "dev1.");
  EXPECT_EQ(fleet.counter("dev0.pkts"), 10u);
  EXPECT_EQ(fleet.counter("dev1.pkts"), 32u);

  // Merging without a prefix aggregates same-named counters.
  Snapshot sum;
  sum.merge(device0.snapshot());
  sum.merge(device1.snapshot());
  EXPECT_EQ(sum.counter("pkts"), 42u);
}

}  // namespace
}  // namespace sf::telemetry

#include <gtest/gtest.h>

#include <string>

#include "net/ip.hpp"
#include "telemetry/export.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sketch.hpp"

namespace sf::telemetry {
namespace {

Snapshot sample_snapshot() {
  Registry registry;
  registry.counter("gw.packets_in").add(1234);
  registry.counter("gw.drops").add(5);
  Histogram::Config config;
  config.min_value = 1.0;
  config.growth = 2.0;
  config.buckets = 3;
  Histogram& lat = registry.histogram("gw.latency_us", config);
  lat.record(0.5);
  lat.record(3.0);
  lat.record(100.0);
  return registry.snapshot();
}

TEST(Export, TableListsCountersAndHistograms) {
  const std::string table = to_table(sample_snapshot());
  EXPECT_NE(table.find("gw.packets_in"), std::string::npos);
  EXPECT_NE(table.find("1234"), std::string::npos);
  EXPECT_NE(table.find("gw.latency_us"), std::string::npos);
}

TEST(Export, JsonIsWellFormedEnoughForConsumers) {
  const std::string json = to_json(sample_snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gw.packets_in\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  // The overflow bucket's +inf edge must not leak as a bare `inf` token
  // (invalid JSON) — it is quoted.
  EXPECT_EQ(json.find(",inf"), std::string::npos);
  EXPECT_NE(json.find("\"inf\""), std::string::npos);
}

TEST(Export, PrometheusEmitsSanitizedSeries) {
  const std::string prom = to_prometheus(sample_snapshot());
  // Dots sanitized to underscores; counters suffixed _total.
  EXPECT_NE(prom.find("gw_packets_in_total 1234"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE gw_packets_in_total counter"),
            std::string::npos);
  // Histograms: cumulative buckets ending at +Inf, plus _sum and _count.
  EXPECT_NE(prom.find("gw_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("gw_latency_us_count 3"), std::string::npos);
  EXPECT_NE(prom.find("gw_latency_us_sum"), std::string::npos);
}

TEST(Export, GaugesRenderOnlyWhenPresent) {
  // Counter-only snapshots keep their pre-gauge bytes: no "gauges" key in
  // the JSON, no gauge series in Prometheus (CI byte-diffs depend on it).
  const Snapshot plain = sample_snapshot();
  EXPECT_EQ(to_json(plain).find("\"gauges\""), std::string::npos);
  EXPECT_EQ(to_prometheus(plain).find("# TYPE") != std::string::npos &&
                to_prometheus(plain).find(" gauge\n") != std::string::npos,
            false);

  Registry registry;
  registry.counter("gw.packets_in").add(1);
  registry.gauge("gw.punt_queue.occupancy").set(0.75);
  registry.gauge("gw.flow_cache.high_watermark").set(512);
  const Snapshot with_gauges = registry.snapshot();

  const std::string json = to_json(with_gauges);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"gw.punt_queue.occupancy\":0.75"),
            std::string::npos);

  const std::string prom = to_prometheus(with_gauges);
  EXPECT_NE(prom.find("# TYPE gw_punt_queue_occupancy gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("gw_punt_queue_occupancy 0.75"), std::string::npos);
  EXPECT_NE(prom.find("gw_flow_cache_high_watermark 512"),
            std::string::npos);

  const std::string table = to_table(with_gauges);
  EXPECT_NE(table.find("gw.punt_queue.occupancy"), std::string::npos);
}

TEST(Export, HeavyHitterTableShowsShares) {
  HeavyHitterTracker tracker;
  FlowKey key;
  key.vni = 7;
  key.tuple.src = net::IpAddr(net::Ipv4Addr(10, 0, 0, 1));
  key.tuple.dst = net::IpAddr(net::Ipv4Addr(10, 0, 0, 2));
  key.tuple.proto = 17;
  key.tuple.src_port = 1000;
  key.tuple.dst_port = 53;
  tracker.add(key, 75);

  const std::string table = to_table(tracker.top(1), tracker.total());
  EXPECT_NE(table.find("vni 7"), std::string::npos);
  EXPECT_NE(table.find("75"), std::string::npos);
}

TEST(EventJournal, RingOverwritesOldestButKeepsSequence) {
  EventJournal journal(3);
  EXPECT_EQ(journal.capacity(), 3u);
  for (int i = 1; i <= 5; ++i) {
    journal.record("table-update",
                   "update " + std::to_string(i), /*time=*/i * 1.0);
  }
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.total_recorded(), 5u);
  EXPECT_EQ(journal.overwritten(), 2u);

  const auto events = journal.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].sequence, 3u);  // oldest retained
  EXPECT_EQ(events[2].sequence, 5u);  // newest
  EXPECT_EQ(events[2].message, "update 5");
  EXPECT_DOUBLE_EQ(events[2].time, 5.0);
}

TEST(EventJournal, FiltersByCategoryAndKeepsCountingAfterClear) {
  EventJournal journal(8);
  journal.record("failover", "device 2 down", 1.0);
  journal.record("table-update", "route added", 2.0);
  journal.record("failover", "device 2 recovered", 3.0);

  const auto failovers = journal.events("failover");
  ASSERT_EQ(failovers.size(), 2u);
  EXPECT_EQ(failovers[0].message, "device 2 down");
  EXPECT_EQ(failovers[1].message, "device 2 recovered");

  const std::string text = journal.to_string();
  EXPECT_NE(text.find("failover"), std::string::npos);
  EXPECT_NE(text.find("route added"), std::string::npos);

  journal.clear();
  EXPECT_EQ(journal.size(), 0u);
  journal.record("alert", "after clear", 4.0);
  EXPECT_EQ(journal.events().front().sequence, 4u);  // monotonic
}

TEST(EventJournal, CapacityZeroKeepsEveryEvent) {
  EventJournal journal;  // capacity 0: the chaos injector's replay log
  EXPECT_EQ(journal.capacity(), 0u);
  for (int i = 0; i < 1000; ++i) {
    journal.record("inject", "fault " + std::to_string(i), i * 0.5);
  }
  EXPECT_EQ(journal.size(), 1000u);
  EXPECT_EQ(journal.total_recorded(), 1000u);
  EXPECT_EQ(journal.overwritten(), 0u);
  EXPECT_EQ(journal.events().front().message, "fault 0");
  EXPECT_EQ(journal.events().back().message, "fault 999");
  const std::string text = journal.to_string();
  EXPECT_EQ(text.find("overwritten"), std::string::npos);
  EXPECT_EQ(text.rfind("[t=0.000] inject: fault 0\n", 0), 0u);
}

// Times render as %.3f: a week-scale time keeps its fraction and a time
// past 1e6 s never switches to exponent form.
TEST(EventJournal, RendersExactBytesAtWeekScale) {
  EventJournal journal;
  journal.record("inject", "device crash", 0.5);
  journal.record("failover", "cluster 1: device 0 failed", 604799.5);
  journal.record("recover", "all faults recovered", 1234567.125);
  EXPECT_EQ(journal.to_string(),
            "[t=0.500] inject: device crash\n"
            "[t=604799.500] failover: cluster 1: device 0 failed\n"
            "[t=1234567.125] recover: all faults recovered\n");
}

TEST(EventJournal, WrappedRingRendersTheLossFirst) {
  EventJournal journal(2);
  journal.record("alert", "one", 1.0);
  EXPECT_EQ(journal.to_string(), "[t=1.000] alert: one\n");
  journal.record("alert", "two", 2.0);
  journal.record("alert", "three", 3.0);
  EXPECT_EQ(journal.to_string(),
            "(1 older events overwritten)\n"
            "[t=2.000] alert: two\n"
            "[t=3.000] alert: three\n");
  journal.clear();
  journal.record("alert", "four", 4.0);
  EXPECT_EQ(journal.to_string(), "[t=4.000] alert: four\n");
}

}  // namespace
}  // namespace sf::telemetry

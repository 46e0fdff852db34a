// sf::dpu threaded through a full SailfishRegion — the three-tier
// overflow scenario: sketch-driven promotion in the interval model, the
// functional path serving placed flows at DPU latency, failover to x86
// on node failure with re-promotion on recovery, thread-count byte
// identity, and the pressure gauges.

#include <gtest/gtest.h>

#include <string>

#include "core/sailfish.hpp"
#include "dpu/xgw_dpu.hpp"
#include "sim/table_printer.hpp"

namespace sf::core {
namespace {

constexpr double kIntervalBps = 1e11;

/// Warms the placer: enough intervals for promotions to reach steady
/// state under the per-interval budget.
SailfishRegion::IntervalReport warm(SailfishSystem& system, int intervals,
                                    std::uint64_t key_base = 0) {
  SailfishRegion::IntervalReport report;
  for (int k = 0; k < intervals; ++k) {
    report = system.region->simulate_interval(
        system.flows, kIntervalBps, key_base + static_cast<std::uint64_t>(k));
  }
  return report;
}

std::string render(const SailfishRegion::IntervalReport& report) {
  return sim::format("%.17e %.17e %.17e %.17e %.17e %.17e %zu %zu %zu\n",
                     report.offered_pps, report.dropped_pps, report.dpu_pps,
                     report.overflow_x86_pps, report.punt_queue_occupancy,
                     report.p99_latency_us, report.dpu_flow_entries,
                     report.dpu_promotions, report.dpu_demotions);
}

TEST(DpuRegion, TierAbsorbsOverflowElephants) {
  SailfishSystem baseline = make_system(overflow_options(4.0, false));
  SailfishSystem tiered = make_system(overflow_options(4.0, true));
  ASSERT_GT(tiered.region->controller().overflow_count(), 0u);
  ASSERT_EQ(tiered.region->dpu_node_count(), 2u);
  ASSERT_NE(tiered.region->tier_placer(), nullptr);

  const auto off = warm(baseline, 8);
  const auto on = warm(tiered, 8);

  // The DPU tier takes the overflow elephants off the punt lanes.
  EXPECT_GT(on.dpu_pps, 0.0);
  EXPECT_GT(on.dpu_flow_entries, 0u);
  EXPECT_LT(on.punt_queue_occupancy, off.punt_queue_occupancy);
  EXPECT_LT(on.p99_latency_us, off.p99_latency_us);
  EXPECT_LT(on.drop_rate, off.drop_rate);

  // Reported entries match the devices' actual tables, and the placer
  // agrees with what it installed.
  std::size_t device_entries = 0;
  for (std::size_t n = 0; n < tiered.region->dpu_node_count(); ++n) {
    device_entries += tiered.region->dpu_node(n).flow_count();
  }
  EXPECT_EQ(device_entries, on.dpu_flow_entries);
  EXPECT_EQ(tiered.region->tier_placer()->placed_count(), device_entries);

  // The baseline region reports inert three-tier fields.
  EXPECT_EQ(baseline.region->dpu_node_count(), 0u);
  EXPECT_EQ(baseline.region->tier_placer(), nullptr);
  EXPECT_EQ(off.dpu_pps, 0.0);
  EXPECT_EQ(off.dpu_flow_entries, 0u);
}

TEST(DpuRegion, FunctionalPathServesPlacedFlowsAtDpuLatency) {
  SailfishSystem system = make_system(overflow_options(4.0, true));
  warm(system, 8);

  const dpu::TierPlacer& placer = *system.region->tier_placer();
  const workload::Flow* placed = nullptr;
  for (const workload::Flow& flow : system.flows) {
    if (placer.placement({flow.vni, flow.tuple}).has_value()) {
      placed = &flow;
      break;
    }
  }
  ASSERT_NE(placed, nullptr) << "no flow promoted after warmup";

  net::OverlayPacket packet;
  packet.vni = placed->vni;
  packet.inner = placed->tuple;
  packet.payload_size = 256;

  const std::uint64_t served_before =
      system.region->registry().counter_value("region.dpu.served");
  const auto verdict = system.region->process(packet, 100.0);
  EXPECT_FALSE(verdict.dropped());
  EXPECT_DOUBLE_EQ(
      verdict.latency_us,
      system.region->config().dpu_template.base_latency_us);
  EXPECT_EQ(system.region->registry().counter_value("region.dpu.served"),
            served_before + 1);
}

TEST(DpuRegion, NodeFailureFailsOverToX86AndRepromotesOnRecovery) {
  SailfishSystem system = make_system(overflow_options(4.0, true));
  const auto steady = warm(system, 8);
  ASSERT_GT(steady.dpu_pps, 0.0);

  system.region->set_dpu_failed(0, true);
  system.region->set_dpu_failed(1, true);
  EXPECT_EQ(system.region->tier_placer()->placed_count(), 0u);

  // With the tier dark, the overflow rides the punt lanes again (no
  // re-promotion: installs are refused while failed).
  const auto dark = warm(system, 2, 100);
  EXPECT_EQ(dark.dpu_pps, 0.0);
  EXPECT_EQ(dark.dpu_flow_entries, 0u);
  EXPECT_GT(dark.punt_queue_occupancy, steady.punt_queue_occupancy);

  system.region->set_dpu_failed(0, false);
  system.region->set_dpu_failed(1, false);
  const auto recovered = warm(system, 8, 200);
  EXPECT_GT(recovered.dpu_pps, 0.0);
  EXPECT_GT(recovered.dpu_flow_entries, 0u);
}

TEST(DpuRegion, IntervalSeriesIsByteIdenticalAcrossThreadCounts) {
  SailfishSystem one = make_system(overflow_options(4.0, true));
  SailfishSystem eight = make_system(overflow_options(4.0, true));
  one.region->set_interval_threads(1);
  eight.region->set_interval_threads(8);

  std::string series_one;
  std::string series_eight;
  for (int k = 0; k < 6; ++k) {
    series_one += render(one.region->simulate_interval(
        one.flows, kIntervalBps, static_cast<std::uint64_t>(k)));
    series_eight += render(eight.region->simulate_interval(
        eight.flows, kIntervalBps, static_cast<std::uint64_t>(k)));
  }
  EXPECT_EQ(series_one, series_eight);
}

TEST(DpuRegion, PressureGaugesArePublishedOnDemandOnly) {
  SailfishSystem system = make_system(overflow_options(4.0, true));
  warm(system, 4);

  // Opt-in: a region that never publishes keeps gauge-free snapshots.
  EXPECT_TRUE(system.region->telemetry_snapshot().gauges.empty());

  system.region->publish_pressure_gauges(10.0);
  const auto snapshot = system.region->telemetry_snapshot();
  EXPECT_TRUE(snapshot.gauges.contains("region.punt_queue.occupancy"));
  EXPECT_TRUE(snapshot.gauges.contains("region.punt_queue.high_watermark"));
  EXPECT_TRUE(snapshot.gauges.contains("region.flow_cache.occupied"));
  EXPECT_TRUE(snapshot.gauges.contains("region.flow_cache.high_watermark"));
  EXPECT_TRUE(snapshot.gauges.contains("region.dpu.flow_entries"));
  EXPECT_TRUE(snapshot.gauges.contains("region.dpu.table_occupancy"));
  EXPECT_GT(snapshot.gauge("region.dpu.flow_entries"), 0.0);
  EXPECT_GT(snapshot.gauge("region.dpu.table_occupancy"), 0.0);
}

TEST(DpuRegion, ConfigOffBuildsNothingAndRegistersNoCounters) {
  SailfishSystem system = make_system(overflow_options(4.0, false));
  EXPECT_EQ(system.region->dpu_node_count(), 0u);
  EXPECT_EQ(system.region->tier_placer(), nullptr);
  warm(system, 2);
  for (const auto& [name, value] : system.region->telemetry_snapshot().counters) {
    EXPECT_EQ(name.find("dpu"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace sf::core

#include "chaos/schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sf::chaos {
namespace {

TEST(ChaosSchedule, SameSeedSameSchedule) {
  ChaosSchedule::RandomConfig config;
  config.events = 20;
  const ChaosSchedule a = ChaosSchedule::random(0xfeedULL, config);
  const ChaosSchedule b = ChaosSchedule::random(0xfeedULL, config);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.seed(), 0xfeedULL);
}

TEST(ChaosSchedule, DifferentSeedsDiffer) {
  ChaosSchedule::RandomConfig config;
  config.events = 20;
  const ChaosSchedule a = ChaosSchedule::random(1, config);
  const ChaosSchedule b = ChaosSchedule::random(2, config);
  EXPECT_NE(a.to_string(), b.to_string());
}

TEST(ChaosSchedule, EventsSortedAndBounded) {
  ChaosSchedule::RandomConfig config;
  config.events = 50;
  config.clusters = 2;
  config.devices_per_cluster = 3;
  config.ports_per_device = 8;
  const ChaosSchedule schedule = ChaosSchedule::random(7, config);
  ASSERT_EQ(schedule.size(), 50u);
  double last = 0;
  for (const ChaosEvent& event : schedule.events()) {
    EXPECT_GE(event.time, last);
    last = event.time;
    EXPECT_LE(event.time, config.horizon_s);
    EXPECT_LT(event.cluster, config.clusters);
    EXPECT_LT(event.device, config.devices_per_cluster);
    EXPECT_LT(event.port, config.ports_per_device);
    // Times are quantized to the probe tick so replays observe fault
    // fronts in a fixed order.
    EXPECT_DOUBLE_EQ(event.time, 0.5 * std::round(event.time / 0.5));
  }
}

TEST(ChaosSchedule, ControlPlaneFaultsCanBeDisabled) {
  ChaosSchedule::RandomConfig config;
  config.events = 60;
  config.control_plane_faults = false;
  config.upgrade_faults = false;
  const ChaosSchedule schedule = ChaosSchedule::random(11, config);
  for (const ChaosEvent& event : schedule.events()) {
    EXPECT_NE(event.kind, FaultKind::kChannelOutage);
    EXPECT_NE(event.kind, FaultKind::kUpdateStorm);
    EXPECT_NE(event.kind, FaultKind::kMidUpgradeFailure);
  }
}

// Regression: with control-plane faults off, the upgrade face used to
// draw channel outages, and a mid-upgrade failure was never drawn.
TEST(ChaosSchedule, UpgradeFaultsWithoutControlPlaneFaults) {
  ChaosSchedule::RandomConfig config;
  config.events = 24;
  config.control_plane_faults = false;
  config.upgrade_faults = true;
  std::size_t outages = 0, storms = 0, upgrades = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ChaosSchedule schedule = ChaosSchedule::random(seed, config);
    for (const ChaosEvent& event : schedule.events()) {
      outages += event.kind == FaultKind::kChannelOutage;
      storms += event.kind == FaultKind::kUpdateStorm;
      upgrades += event.kind == FaultKind::kMidUpgradeFailure;
    }
  }
  EXPECT_EQ(outages, 0u);
  EXPECT_EQ(storms, 0u);
  EXPECT_GE(upgrades, 1u);
}

TEST(ChaosSchedule, AddKeepsTimeOrderStableForTies) {
  ChaosSchedule schedule;
  ChaosEvent a{2.0, FaultKind::kDeviceCrash, 0, 0, 0, 0, 1.0, 1e-3};
  ChaosEvent b{1.0, FaultKind::kPortErrorBurst, 0, 1, 2, 3, 0, 1e-3};
  ChaosEvent c{2.0, FaultKind::kChannelOutage, 0, 2, 0, 0, 4.0, 1e-3};
  schedule.add(a).add(b).add(c);
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule.events()[0].kind, FaultKind::kPortErrorBurst);
  // a arrived before c with the same time: stable order keeps a first.
  EXPECT_EQ(schedule.events()[1].kind, FaultKind::kDeviceCrash);
  EXPECT_EQ(schedule.events()[2].kind, FaultKind::kChannelOutage);
}

TEST(ChaosSchedule, HorizonCoversEventTails) {
  ChaosSchedule schedule;
  schedule.add(ChaosEvent{1.0, FaultKind::kDeviceCrash, 0, 0, 0, 0, 6.0,
                          1e-3});
  schedule.add(ChaosEvent{2.0, FaultKind::kDeviceFlap, 0, 1, 0, 3, 1.0,
                          1e-3});
  // Crash ends at 7.0; the flap's three 1s-down/1s-up cycles end at 8.0.
  EXPECT_DOUBLE_EQ(schedule.horizon(), 8.0);
}

TEST(ChaosEvent, RenderingIsStable) {
  ChaosEvent event{1.5, FaultKind::kLinkLoss, 0, 2, 4, 8, 0.0, 1e-3};
  EXPECT_EQ(event.to_string(),
            "t=1.500 link-loss cluster=0 device=2 port=4 count=8 "
            "duration=0.000 error_rate=1.000e-03");
}

}  // namespace
}  // namespace sf::chaos

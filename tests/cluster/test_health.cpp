#include "cluster/health.hpp"

#include <gtest/gtest.h>

namespace sf::cluster {
namespace {

struct Fixture {
  Controller controller;
  DisasterRecovery recovery;
  HealthMonitor monitor;

  Fixture()
      : controller([] {
          Controller::Config config;
          config.cluster_template.primary_devices = 2;
          config.cluster_template.backup_devices = 1;
          config.initial_clusters = 1;
          return config;
        }()),
        recovery(&controller,
                 [] {
                   DisasterRecovery::Config config;
                   config.cold_standby_pool = 0;
                   config.min_live_fraction = 0.0;
                   return config;
                 }()),
        monitor(&recovery, HealthMonitor::Config{}) {}
};

TEST(HealthMonitor, SingleMissedHeartbeatDoesNotFail) {
  Fixture f;
  f.monitor.report_heartbeat(0, 0, false, 1.0);
  f.monitor.report_heartbeat(0, 0, true, 2.0);
  EXPECT_FALSE(f.monitor.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 2u);
}

TEST(HealthMonitor, ThreeConsecutiveMissesFailTheDevice) {
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    f.monitor.report_heartbeat(0, 0, false, 1.0 + i);
  }
  EXPECT_TRUE(f.monitor.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 1u);
  // Further misses don't double-fail.
  f.monitor.report_heartbeat(0, 0, false, 5.0);
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 1u);
}

TEST(HealthMonitor, RecoveryNeedsTwoGoodHeartbeats) {
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    f.monitor.report_heartbeat(0, 0, false, 1.0 + i);
  }
  f.monitor.report_heartbeat(0, 0, true, 5.0);
  EXPECT_TRUE(f.monitor.device_considered_failed(0, 0));
  f.monitor.report_heartbeat(0, 0, true, 6.0);
  EXPECT_FALSE(f.monitor.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 2u);
}

TEST(HealthMonitor, FlappingHeartbeatNeverTriggers) {
  Fixture f;
  for (int i = 0; i < 20; ++i) {
    f.monitor.report_heartbeat(0, 0, i % 2 == 0, 1.0 + i);
  }
  EXPECT_FALSE(f.monitor.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 2u);
}

TEST(HealthMonitor, PortIsolationAfterSustainedErrors) {
  Fixture f;
  f.monitor.report_port_errors(0, 1, 3, 1e-4, 1.0);
  EXPECT_FALSE(f.monitor.port_considered_isolated(0, 1, 3));
  f.monitor.report_port_errors(0, 1, 3, 1e-4, 2.0);
  EXPECT_TRUE(f.monitor.port_considered_isolated(0, 1, 3));
  EXPECT_LT(f.recovery.device_capacity_fraction(0, 1), 1.0);
  // Recovery is hysteretic too: one clean observation is not enough...
  f.monitor.report_port_errors(0, 1, 3, 0.0, 3.0);
  EXPECT_TRUE(f.monitor.port_considered_isolated(0, 1, 3));
  EXPECT_LT(f.recovery.device_capacity_fraction(0, 1), 1.0);
  // ...two sustained clean observations bring it back.
  f.monitor.report_port_errors(0, 1, 3, 0.0, 4.0);
  EXPECT_FALSE(f.monitor.port_considered_isolated(0, 1, 3));
  EXPECT_DOUBLE_EQ(f.recovery.device_capacity_fraction(0, 1), 1.0);
}

TEST(HealthMonitor, FlappingPortDoesNotOscillate) {
  Fixture f;
  f.monitor.report_port_errors(0, 1, 3, 1e-4, 1.0);
  f.monitor.report_port_errors(0, 1, 3, 1e-4, 2.0);
  ASSERT_TRUE(f.monitor.port_considered_isolated(0, 1, 3));
  const telemetry::EventJournal& journal = f.controller.journal();
  const std::size_t events_after_isolation =
      journal.events("failover").size();
  // A strict good/bad alternation never sustains recover_port_after_ok
  // clean observations, so the port must stay isolated the whole time —
  // before the recovery hysteresis existed, every single good probe
  // re-admitted the port and the next bad pair re-isolated it.
  for (int i = 0; i < 10; ++i) {
    f.monitor.report_port_errors(0, 1, 3, i % 2 == 0 ? 0.0 : 1e-4, 3.0 + i);
    EXPECT_TRUE(f.monitor.port_considered_isolated(0, 1, 3));
  }
  EXPECT_EQ(journal.events("failover").size(), events_after_isolation);
  EXPECT_EQ(journal.overwritten(), 0u);
  EXPECT_LT(f.recovery.device_capacity_fraction(0, 1), 1.0);
}

TEST(HealthMonitor, PortFaultEscalationSyncsDeviceState) {
  // All ports of device 0 go dark: DisasterRecovery escalates to a
  // node-level failure on its own. The monitor must learn about it via
  // the listener so the device is not "healthy" in one state machine and
  // "failed" in the other.
  Controller controller([] {
    Controller::Config config;
    config.cluster_template.primary_devices = 2;
    config.cluster_template.backup_devices = 0;
    return config;
  }());
  DisasterRecovery recovery(&controller, [] {
    DisasterRecovery::Config config;
    config.cold_standby_pool = 0;
    config.min_live_fraction = 0.0;
    config.ports_per_device = 4;
    return config;
  }());
  HealthMonitor monitor(&recovery, HealthMonitor::Config{});

  for (unsigned port = 0; port < 4; ++port) {
    monitor.report_port_errors(0, 0, port, 1e-3, 1.0);
    monitor.report_port_errors(0, 0, port, 1e-3, 2.0);
  }
  EXPECT_TRUE(monitor.device_considered_failed(0, 0));
  EXPECT_EQ(controller.cluster(0).live_device_count(), 1u);

  // Because the monitor adopted the failure, good heartbeats now drive a
  // real recovery (previously they were ignored: devices_ never learned).
  monitor.report_heartbeat(0, 0, true, 3.0);
  monitor.report_heartbeat(0, 0, true, 4.0);
  EXPECT_FALSE(monitor.device_considered_failed(0, 0));
  EXPECT_EQ(controller.cluster(0).live_device_count(), 2u);
  EXPECT_TRUE(recovery.quiescent());
}

TEST(HealthMonitor, ColdStandbyReplacementResetsObservations) {
  // One of two primaries dies with a port already isolated; the pool has
  // a standby and the live fraction dips below threshold, so recovery
  // swaps in fresh hardware. Both the recovery ledger and the monitor's
  // observation history for the slot must reset.
  Controller controller([] {
    Controller::Config config;
    config.cluster_template.primary_devices = 2;
    config.cluster_template.backup_devices = 0;
    return config;
  }());
  DisasterRecovery recovery(&controller, [] {
    DisasterRecovery::Config config;
    config.cold_standby_pool = 1;
    config.min_live_fraction = 0.9;
    config.ports_per_device = 4;
    return config;
  }());
  HealthMonitor monitor(&recovery, HealthMonitor::Config{});

  monitor.report_port_errors(0, 0, 2, 1e-3, 1.0);
  monitor.report_port_errors(0, 0, 2, 1e-3, 2.0);
  ASSERT_TRUE(monitor.port_considered_isolated(0, 0, 2));
  ASSERT_EQ(recovery.isolated_port_count(0, 0), 1u);

  for (int i = 0; i < 3; ++i) {
    monitor.report_heartbeat(0, 0, false, 3.0 + i);
  }
  // Standby activated: slot serves, old port ledger cleared everywhere.
  EXPECT_EQ(recovery.cold_standby_available(), 0u);
  EXPECT_EQ(controller.cluster(0).live_device_count(), 2u);
  EXPECT_FALSE(monitor.device_considered_failed(0, 0));
  EXPECT_FALSE(monitor.port_considered_isolated(0, 0, 2));
  EXPECT_EQ(recovery.isolated_port_count(0, 0), 0u);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 0), 1.0);
  EXPECT_TRUE(recovery.quiescent());
}

TEST(HealthMonitor, PortsTrackedIndependently) {
  Fixture f;
  f.monitor.report_port_errors(0, 1, 3, 1e-4, 1.0);
  f.monitor.report_port_errors(0, 1, 4, 1e-4, 1.0);
  f.monitor.report_port_errors(0, 1, 3, 1e-4, 2.0);
  EXPECT_TRUE(f.monitor.port_considered_isolated(0, 1, 3));
  EXPECT_FALSE(f.monitor.port_considered_isolated(0, 1, 4));
}

TEST(HealthMonitor, ValidatesConfig) {
  Fixture f;
  HealthMonitor::Config bad;
  bad.fail_after_missed = 0;
  EXPECT_THROW(HealthMonitor(&f.recovery, bad), std::invalid_argument);
  EXPECT_THROW(HealthMonitor(nullptr, HealthMonitor::Config{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sf::cluster

// Health monitoring (§6.1): the debounce DisasterRecovery applies to the
// heartbeats and port error rates it is fed before it acts, and how its
// own decisions (escalation, cold-standby replacement) land in the same
// state later observations read.

#include "cluster/disaster_recovery.hpp"

#include <gtest/gtest.h>

namespace sf::cluster {
namespace {

struct Fixture {
  Controller controller;
  DisasterRecovery recovery;

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
                 }()) {}
};

TEST(HealthMonitor, SingleMissedHeartbeatDoesNotFail) {
  Fixture f;
  f.recovery.report_heartbeat(0, 0, false, 1.0);
  f.recovery.report_heartbeat(0, 0, true, 2.0);
  EXPECT_FALSE(f.recovery.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 2u);
}

TEST(HealthMonitor, ThreeConsecutiveMissesFailTheDevice) {
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    f.recovery.report_heartbeat(0, 0, false, 1.0 + i);
  }
  EXPECT_TRUE(f.recovery.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 1u);
  // Further misses don't double-fail.
  f.recovery.report_heartbeat(0, 0, false, 5.0);
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 1u);
}

TEST(HealthMonitor, RecoveryNeedsTwoGoodHeartbeats) {
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    f.recovery.report_heartbeat(0, 0, false, 1.0 + i);
  }
  f.recovery.report_heartbeat(0, 0, true, 5.0);
  EXPECT_TRUE(f.recovery.device_considered_failed(0, 0));
  f.recovery.report_heartbeat(0, 0, true, 6.0);
  EXPECT_FALSE(f.recovery.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 2u);
}

TEST(HealthMonitor, FlappingHeartbeatNeverTriggers) {
  Fixture f;
  for (int i = 0; i < 20; ++i) {
    f.recovery.report_heartbeat(0, 0, i % 2 == 0, 1.0 + i);
  }
  EXPECT_FALSE(f.recovery.device_considered_failed(0, 0));
  EXPECT_EQ(f.controller.cluster(0).live_device_count(), 2u);
}

TEST(HealthMonitor, PortIsolationAfterSustainedErrors) {
  Fixture f;
  f.recovery.report_port_errors(0, 1, 3, 1e-4, 1.0);
  EXPECT_FALSE(f.recovery.port_considered_isolated(0, 1, 3));
  f.recovery.report_port_errors(0, 1, 3, 1e-4, 2.0);
  EXPECT_TRUE(f.recovery.port_considered_isolated(0, 1, 3));
  EXPECT_LT(f.recovery.device_capacity_fraction(0, 1), 1.0);
  // Recovery is hysteretic too: one clean observation is not enough...
  f.recovery.report_port_errors(0, 1, 3, 0.0, 3.0);
  EXPECT_TRUE(f.recovery.port_considered_isolated(0, 1, 3));
  EXPECT_LT(f.recovery.device_capacity_fraction(0, 1), 1.0);
  // ...two sustained clean observations bring it back.
  f.recovery.report_port_errors(0, 1, 3, 0.0, 4.0);
  EXPECT_FALSE(f.recovery.port_considered_isolated(0, 1, 3));
  EXPECT_DOUBLE_EQ(f.recovery.device_capacity_fraction(0, 1), 1.0);
}

TEST(HealthMonitor, FlappingPortDoesNotOscillate) {
  Fixture f;
  f.recovery.report_port_errors(0, 1, 3, 1e-4, 1.0);
  f.recovery.report_port_errors(0, 1, 3, 1e-4, 2.0);
  ASSERT_TRUE(f.recovery.port_considered_isolated(0, 1, 3));
  const telemetry::EventJournal& journal = f.controller.journal();
  const std::size_t events_after_isolation =
      journal.events("failover").size();
  // A strict good/bad alternation never sustains recover_port_after_ok
  // clean observations, so the port must stay isolated the whole time —
  // before the recovery hysteresis existed, every single good probe
  // re-admitted the port and the next bad pair re-isolated it.
  for (int i = 0; i < 10; ++i) {
    f.recovery.report_port_errors(0, 1, 3, i % 2 == 0 ? 0.0 : 1e-4, 3.0 + i);
    EXPECT_TRUE(f.recovery.port_considered_isolated(0, 1, 3));
  }
  EXPECT_EQ(journal.events("failover").size(), events_after_isolation);
  EXPECT_EQ(journal.overwritten(), 0u);
  EXPECT_LT(f.recovery.device_capacity_fraction(0, 1), 1.0);
}

TEST(HealthMonitor, PortFaultEscalationSyncsDeviceState) {
  // All ports of device 0 go dark: DisasterRecovery escalates to a
  // node-level failure on its own. The escalation must mark the slot
  // failed in the same state heartbeats read, so the device is not
  // "healthy" to the debounce and "failed" to the cluster.
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

  for (unsigned port = 0; port < 4; ++port) {
    recovery.report_port_errors(0, 0, port, 1e-3, 1.0);
    recovery.report_port_errors(0, 0, port, 1e-3, 2.0);
  }
  EXPECT_TRUE(recovery.device_considered_failed(0, 0));
  EXPECT_EQ(controller.cluster(0).live_device_count(), 1u);

  // Because the slot is failed, good heartbeats now drive a real
  // recovery instead of being ignored.
  recovery.report_heartbeat(0, 0, true, 3.0);
  recovery.report_heartbeat(0, 0, true, 4.0);
  EXPECT_FALSE(recovery.device_considered_failed(0, 0));
  EXPECT_EQ(controller.cluster(0).live_device_count(), 2u);
  EXPECT_TRUE(recovery.quiescent());
}

TEST(HealthMonitor, ColdStandbyReplacementResetsObservations) {
  // One of two primaries dies with a port already isolated; the pool has
  // a standby and the live fraction dips below threshold, so recovery
  // swaps in fresh hardware. Both the isolated-port ledger and the
  // slot's observation history must reset.
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

  recovery.report_port_errors(0, 0, 2, 1e-3, 1.0);
  recovery.report_port_errors(0, 0, 2, 1e-3, 2.0);
  ASSERT_TRUE(recovery.port_considered_isolated(0, 0, 2));
  ASSERT_EQ(recovery.isolated_port_count(0, 0), 1u);

  for (int i = 0; i < 3; ++i) {
    recovery.report_heartbeat(0, 0, false, 3.0 + i);
  }
  // Standby activated: slot serves, old port ledger cleared everywhere.
  EXPECT_EQ(recovery.cold_standby_available(), 0u);
  EXPECT_EQ(controller.cluster(0).live_device_count(), 2u);
  EXPECT_FALSE(recovery.device_considered_failed(0, 0));
  EXPECT_FALSE(recovery.port_considered_isolated(0, 0, 2));
  EXPECT_EQ(recovery.isolated_port_count(0, 0), 0u);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 0), 1.0);
  EXPECT_TRUE(recovery.quiescent());
}

TEST(HealthMonitor, PortsTrackedIndependently) {
  Fixture f;
  f.recovery.report_port_errors(0, 1, 3, 1e-4, 1.0);
  f.recovery.report_port_errors(0, 1, 4, 1e-4, 1.0);
  f.recovery.report_port_errors(0, 1, 3, 1e-4, 2.0);
  EXPECT_TRUE(f.recovery.port_considered_isolated(0, 1, 3));
  EXPECT_FALSE(f.recovery.port_considered_isolated(0, 1, 4));
}

TEST(HealthMonitor, ValidatesConfig) {
  Fixture f;
  DisasterRecovery::Config bad;
  bad.fail_after_missed = 0;
  EXPECT_THROW(DisasterRecovery(&f.controller, bad), std::invalid_argument);
  bad = DisasterRecovery::Config{};
  bad.recover_after_ok = 0;
  EXPECT_THROW(DisasterRecovery(&f.controller, bad), std::invalid_argument);
}

}  // namespace
}  // namespace sf::cluster

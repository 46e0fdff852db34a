#include "cluster/disaster_recovery.hpp"

#include <gtest/gtest.h>

namespace sf::cluster {
namespace {

Controller::Config small_cluster() {
  Controller::Config config;
  config.cluster_template.primary_devices = 4;
  config.cluster_template.backup_devices = 0;
  return config;
}

DisasterRecovery::Config recovery_config(std::size_t standby,
                                         double min_live_fraction) {
  DisasterRecovery::Config config;
  config.cold_standby_pool = standby;
  config.min_live_fraction = min_live_fraction;
  config.ports_per_device = 8;
  return config;
}

TEST(DisasterRecovery, PortIsolationShavesCapacity) {
  Controller controller(small_cluster());
  DisasterRecovery recovery(&controller, recovery_config(0, 0.0));
  recovery.on_port_fault(0, 1, 3, 1.0);
  recovery.on_port_fault(0, 1, 4, 2.0);
  EXPECT_EQ(recovery.isolated_port_count(0, 1), 2u);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 1), 1.0 - 2.0 / 8.0);
  EXPECT_FALSE(recovery.quiescent());
  recovery.on_port_recovery(0, 1, 3, 3.0);
  recovery.on_port_recovery(0, 1, 4, 4.0);
  EXPECT_EQ(recovery.isolated_port_count(0, 1), 0u);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 1), 1.0);
  // The last recovery must erase the slot entry, not park a zero there.
  EXPECT_TRUE(recovery.quiescent());
}

TEST(DisasterRecovery, DeviceRecoveryClearsStalePortLedger) {
  Controller controller(small_cluster());
  DisasterRecovery recovery(&controller, recovery_config(0, 0.0));
  recovery.on_port_fault(0, 2, 0, 1.0);
  recovery.on_port_fault(0, 2, 1, 1.0);
  ASSERT_EQ(recovery.isolated_port_count(0, 2), 2u);

  recovery.on_device_failure(0, 2, 2.0);
  recovery.on_device_recovery(0, 2, 3.0);
  // The slot came back on fresh (or rebooted) hardware: the old isolated
  // ports no longer exist, so the ledger must not keep shaving capacity.
  EXPECT_EQ(recovery.isolated_port_count(0, 2), 0u);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 2), 1.0);
  EXPECT_TRUE(recovery.quiescent());
}

TEST(DisasterRecovery, ColdStandbyActivationClearsStalePortLedger) {
  Controller controller(small_cluster());
  // min_live_fraction 0.9: any single failure dips below it.
  DisasterRecovery recovery(&controller, recovery_config(2, 0.9));
  recovery.on_port_fault(0, 0, 5, 1.0);
  ASSERT_EQ(recovery.isolated_port_count(0, 0), 1u);

  recovery.on_device_failure(0, 0, 2.0);
  EXPECT_EQ(recovery.cold_standby_available(), 1u);
  EXPECT_EQ(controller.cluster(0).live_device_count(), 4u);
  // The standby is fresh hardware: the dead device's isolated-port count
  // must not follow it into the slot.
  EXPECT_EQ(recovery.isolated_port_count(0, 0), 0u);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 0), 1.0);
  EXPECT_TRUE(recovery.quiescent());
}

TEST(DisasterRecovery, AllPortsGoneEscalatesToDeviceFailure) {
  Controller controller(small_cluster());
  DisasterRecovery recovery(&controller, recovery_config(0, 0.0));
  for (unsigned port = 0; port < 8; ++port) {
    recovery.on_port_fault(0, 3, port, 1.0);
  }
  EXPECT_EQ(controller.cluster(0).live_device_count(), 3u);
  EXPECT_EQ(controller.cluster(0).device_health(3), DeviceHealth::kFailed);
}

TEST(DisasterRecovery, EscalationReturnsFailureThenReplacement) {
  Controller controller(small_cluster());
  DisasterRecovery recovery(&controller, recovery_config(1, 0.9));

  // Escalation via port faults returns "failed", and the immediate
  // cold-standby replacement returns "recovered" — in that order, both
  // from the fault that took the last port.
  DisasterRecovery::Transitions caused;
  for (unsigned port = 0; port < 8; ++port) {
    for (const auto& tr : recovery.on_port_fault(0, 1, port, 1.0 + port)) {
      caused.push_back(tr);
    }
  }
  ASSERT_EQ(caused.size(), 2u);
  EXPECT_TRUE(caused[0].failed);
  EXPECT_FALSE(caused[1].failed);
  for (const auto& tr : caused) {
    EXPECT_EQ(tr.cluster, 0u);
    EXPECT_EQ(tr.device, 1u);
    EXPECT_DOUBLE_EQ(tr.time, 8.0);
  }
  EXPECT_EQ(controller.cluster(0).live_device_count(), 4u);

  // With the pool spent the next escalation only fails the slot.
  for (unsigned port = 0; port < 7; ++port) {
    EXPECT_TRUE(recovery.on_port_fault(0, 2, port, 9.0).empty());
  }
  caused = recovery.on_port_fault(0, 2, 7, 9.0);
  ASSERT_EQ(caused.size(), 1u);
  EXPECT_TRUE(caused[0].failed);
  EXPECT_TRUE(recovery.device_considered_failed(0, 2));
  EXPECT_EQ(controller.cluster(0).live_device_count(), 3u);
}

}  // namespace
}  // namespace sf::cluster

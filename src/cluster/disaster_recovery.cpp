#include "cluster/disaster_recovery.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::cluster {

DisasterRecovery::DisasterRecovery(Controller* controller, Config config)
    : controller_(controller),
      config_(config),
      cold_standby_(config.cold_standby_pool) {
  if (controller_ == nullptr) {
    throw std::invalid_argument("DisasterRecovery needs a controller");
  }
  if (config_.fail_after_missed == 0 || config_.recover_after_ok == 0) {
    throw std::invalid_argument("DisasterRecovery thresholds must be >= 1");
  }
}

void DisasterRecovery::record(double now, std::string description) {
  controller_->journal().record("failover", std::move(description), now);
}

void DisasterRecovery::reset_slot(std::size_t cluster, std::size_t device) {
  slots_.erase(slot_key(cluster, device));
  ports_.erase(ports_.lower_bound(port_key(cluster, device, 0)),
               ports_.lower_bound(port_key(cluster, device + 1, 0)));
}

DisasterRecovery::Transitions DisasterRecovery::report_heartbeat(
    std::size_t cluster, std::size_t device, bool ok, double now) {
  SlotState& slot = slots_[slot_key(cluster, device)];
  if (ok) {
    slot.consecutive_missed = 0;
    if (slot.failed && ++slot.consecutive_ok >= config_.recover_after_ok) {
      return on_device_recovery(cluster, device, now);
    }
    return {};
  }
  slot.consecutive_ok = 0;
  if (!slot.failed &&
      ++slot.consecutive_missed >= config_.fail_after_missed) {
    return on_device_failure(cluster, device, now);
  }
  return {};
}

DisasterRecovery::Transitions DisasterRecovery::report_port_errors(
    std::size_t cluster, std::size_t device, unsigned port,
    double error_rate, double now) {
  PortState& state = ports_[port_key(cluster, device, port)];
  if (error_rate <= kPortErrorRateThreshold) {
    state.consecutive_bad = 0;
    // Symmetric hysteresis: a port leaves isolation only on *sustained*
    // clean observations, mirroring how it entered. Without this a
    // flapping port re-enters the ECMP spread on every good probe and
    // oscillates.
    if (state.isolated && ++state.consecutive_ok >= kRecoverPortAfterOk) {
      on_port_recovery(cluster, device, port, now);
    }
    return {};
  }
  state.consecutive_ok = 0;
  if (!state.isolated && ++state.consecutive_bad >= kIsolatePortAfter) {
    return on_port_fault(cluster, device, port, now);
  }
  return {};
}

bool DisasterRecovery::device_considered_failed(std::size_t cluster,
                                                std::size_t device) const {
  auto it = slots_.find(slot_key(cluster, device));
  return it != slots_.end() && it->second.failed;
}

bool DisasterRecovery::port_considered_isolated(std::size_t cluster,
                                                std::size_t device,
                                                unsigned port) const {
  auto it = ports_.find(port_key(cluster, device, port));
  return it != ports_.end() && it->second.isolated;
}

DisasterRecovery::Transitions DisasterRecovery::on_device_failure(
    std::size_t cluster, std::size_t device, double now) {
  XgwHCluster& c = controller_->cluster(cluster);
  c.fail_device(device);
  // Failed even when decided here (the port-fault escalation below), so
  // a later ok heartbeat drives a real recovery instead of being ignored.
  SlotState& slot = slots_[slot_key(cluster, device)];
  slot.failed = true;
  slot.consecutive_missed = 0;
  slot.consecutive_ok = 0;
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " failed; removed from ECMP");
  Transitions caused{{cluster, device, true, now}};
  if (c.failed_over()) {
    record(now, "cluster " + std::to_string(cluster) +
                    ": all primaries down, failed over to hot-standby "
                    "backup set");
    return caused;
  }
  const double live_fraction =
      static_cast<double>(c.live_device_count()) /
      static_cast<double>(c.config().primary_devices);
  if (live_fraction < config_.min_live_fraction) {
    if (cold_standby_ > 0) {
      --cold_standby_;
      // The standby inherits the failed device's tables (they are already
      // identical cluster-wide), so recovery is instant in this model.
      // It is fresh hardware: the dead device's isolated-port ledger must
      // not keep shaving the new device's reported capacity.
      c.recover_device(device);
      reset_slot(cluster, device);
      caused.push_back({cluster, device, false, now});
      record(now, "cluster " + std::to_string(cluster) +
                      ": activated cold-standby gateway in slot " +
                      std::to_string(device));
    } else {
      record(now, "cluster " + std::to_string(cluster) +
                      ": below live-device threshold and no cold standby "
                      "left — alert operators");
    }
  }
  return caused;
}

DisasterRecovery::Transitions DisasterRecovery::on_device_recovery(
    std::size_t cluster, std::size_t device, double now) {
  controller_->cluster(cluster).recover_device(device);
  // A recovering slot comes back with healthy ports (replaced hardware or
  // a clean reboot); stale isolation counts would under-report capacity
  // forever since the new ports never emit the matching recoveries.
  reset_slot(cluster, device);
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " recovered; rejoined ECMP");
  return {{cluster, device, false, now}};
}

DisasterRecovery::Transitions DisasterRecovery::on_port_fault(
    std::size_t cluster, std::size_t device, unsigned port, double now) {
  ports_[port_key(cluster, device, port)] = PortState{0, 0, true};
  unsigned& isolated = slots_[slot_key(cluster, device)].isolated_ports;
  if (isolated < config_.ports_per_device) ++isolated;
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " port " + std::to_string(port) +
                  " isolated; traffic migrated to sibling ports");
  if (isolated == config_.ports_per_device) {
    // Whole device unusable: escalate to node-level failure.
    return on_device_failure(cluster, device, now);
  }
  return {};
}

void DisasterRecovery::on_port_recovery(std::size_t cluster,
                                        std::size_t device, unsigned port,
                                        double now) {
  ports_[port_key(cluster, device, port)] = PortState{};
  auto it = slots_.find(slot_key(cluster, device));
  if (it != slots_.end() && it->second.isolated_ports > 0) {
    --it->second.isolated_ports;
  }
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " port " + std::to_string(port) +
                  " recovered");
}

double DisasterRecovery::device_capacity_fraction(std::size_t cluster,
                                                  std::size_t device) const {
  return 1.0 - static_cast<double>(isolated_port_count(cluster, device)) /
                   static_cast<double>(config_.ports_per_device);
}

unsigned DisasterRecovery::isolated_port_count(std::size_t cluster,
                                               std::size_t device) const {
  auto it = slots_.find(slot_key(cluster, device));
  return it == slots_.end() ? 0 : it->second.isolated_ports;
}

bool DisasterRecovery::quiescent() const {
  return std::ranges::none_of(slots_, [](const auto& entry) {
    return entry.second.isolated_ports != 0;
  });
}

}  // namespace sf::cluster

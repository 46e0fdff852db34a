#include "cluster/disaster_recovery.hpp"

#include <stdexcept>

namespace sf::cluster {
namespace {

std::uint64_t slot_key(std::size_t cluster, std::size_t device) {
  return (static_cast<std::uint64_t>(cluster) << 32) | device;
}

}  // namespace

DisasterRecovery::DisasterRecovery(Controller* controller, Config config)
    : controller_(controller),
      config_(config),
      cold_standby_(config.cold_standby_pool) {
  if (controller_ == nullptr) {
    throw std::invalid_argument("DisasterRecovery needs a controller");
  }
}

void DisasterRecovery::record(double now, std::string description) {
  controller_->journal().record("failover", std::move(description), now);
}

void DisasterRecovery::clear_port_state(std::size_t cluster,
                                        std::size_t device) {
  isolated_ports_.erase(slot_key(cluster, device));
}

void DisasterRecovery::on_device_failure(std::size_t cluster,
                                         std::size_t device, double now) {
  XgwHCluster& c = controller_->cluster(cluster);
  c.fail_device(device);
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " failed; removed from ECMP");
  // Keep observers (the HealthMonitor) in sync even when the failure was
  // decided here — e.g. the port-fault escalation below — so a later ok
  // heartbeat drives a real recovery instead of being ignored.
  if (listener_ != nullptr) {
    listener_->on_device_marked_failed(cluster, device, now);
  }
  if (c.failed_over()) {
    record(now, "cluster " + std::to_string(cluster) +
                    ": all primaries down, failed over to hot-standby "
                    "backup set");
    return;
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
      clear_port_state(cluster, device);
      if (listener_ != nullptr) {
        listener_->on_device_marked_recovered(cluster, device, now);
      }
      record(now, "cluster " + std::to_string(cluster) +
                      ": activated cold-standby gateway in slot " +
                      std::to_string(device));
    } else {
      record(now, "cluster " + std::to_string(cluster) +
                      ": below live-device threshold and no cold standby "
                      "left — alert operators");
    }
  }
}

void DisasterRecovery::on_device_recovery(std::size_t cluster,
                                          std::size_t device, double now) {
  controller_->cluster(cluster).recover_device(device);
  // A recovering slot comes back with healthy ports (replaced hardware or
  // a clean reboot); stale isolation counts would under-report capacity
  // forever since the new ports never emit the matching recoveries.
  clear_port_state(cluster, device);
  if (listener_ != nullptr) {
    listener_->on_device_marked_recovered(cluster, device, now);
  }
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " recovered; rejoined ECMP");
}

void DisasterRecovery::on_port_fault(std::size_t cluster, std::size_t device,
                                     unsigned port, double now) {
  unsigned& isolated = isolated_ports_[slot_key(cluster, device)];
  if (isolated < config_.ports_per_device) ++isolated;
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " port " + std::to_string(port) +
                  " isolated; traffic migrated to sibling ports");
  if (isolated == config_.ports_per_device) {
    // Whole device unusable: escalate to node-level failure.
    on_device_failure(cluster, device, now);
  }
}

void DisasterRecovery::on_port_recovery(std::size_t cluster,
                                        std::size_t device, unsigned port,
                                        double now) {
  auto it = isolated_ports_.find(slot_key(cluster, device));
  if (it != isolated_ports_.end() && it->second > 0) {
    if (--it->second == 0) isolated_ports_.erase(it);
  }
  record(now, "cluster " + std::to_string(cluster) + ": device " +
                  std::to_string(device) + " port " + std::to_string(port) +
                  " recovered");
}

double DisasterRecovery::device_capacity_fraction(std::size_t cluster,
                                                  std::size_t device) const {
  auto it = isolated_ports_.find(slot_key(cluster, device));
  if (it == isolated_ports_.end()) return 1.0;
  return 1.0 - static_cast<double>(it->second) /
                   static_cast<double>(config_.ports_per_device);
}

unsigned DisasterRecovery::isolated_port_count(std::size_t cluster,
                                               std::size_t device) const {
  auto it = isolated_ports_.find(slot_key(cluster, device));
  return it == isolated_ports_.end() ? 0 : it->second;
}

}  // namespace sf::cluster

// Disaster recovery coordination at three levels (§6.1):
//   * cluster — 1:1 hot-standby failover (XgwHCluster::fail_device flips
//     the ECMP set to the backups when the last primary dies);
//   * node — failed devices leave the ECMP set; when a cluster runs too
//     thin, a globally reserved cold-standby gateway is pulled in;
//   * port — a flapping port is isolated, shaving a fraction of its
//     device's capacity until it recovers.
//
// The coordinator reacts to health notifications from the simulators,
// keeps the cold-standby pool, and journals every action it takes in the
// controller's journal under the "failover" category.
// Decisions it takes *on its own* (port-fault escalation to node level,
// cold-standby replacement) are pushed back to the registered
// RecoveryListener so the health view never desyncs from the recovery
// state machine.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "cluster/controller.hpp"

namespace sf::cluster {

/// Receives recovery-side state transitions that did not originate from
/// the listener itself — e.g. the HealthMonitor learns that DR escalated
/// a port fault to a device failure, or replaced a dead device with a
/// cold standby (which arrives with fresh, healthy ports).
class RecoveryListener {
 public:
  virtual ~RecoveryListener() = default;

  /// The device in this slot is now considered failed cluster-side.
  virtual void on_device_marked_failed(std::size_t cluster,
                                       std::size_t device, double now) = 0;
  /// The slot serves again (heartbeat recovery or a fresh standby);
  /// per-device observation state should be reset.
  virtual void on_device_marked_recovered(std::size_t cluster,
                                          std::size_t device,
                                          double now) = 0;
};

class DisasterRecovery {
 public:
  struct Config {
    /// Globally reserved cold-standby gateways for the region.
    std::size_t cold_standby_pool = 4;
    /// When a cluster's live device count falls below this fraction of
    /// its primaries, a cold standby is activated.
    double min_live_fraction = 0.5;
    /// Ports per device (capacity granularity for port-level isolation).
    unsigned ports_per_device = 32;
  };

  DisasterRecovery(Controller* controller, Config config);

  /// Registers the observer for recovery-initiated transitions (the
  /// HealthMonitor registers itself). Pass nullptr to detach.
  void set_listener(RecoveryListener* listener) { listener_ = listener; }
  RecoveryListener* listener() const { return listener_; }

  // ---- notifications from health monitoring -------------------------------

  void on_device_failure(std::size_t cluster, std::size_t device,
                         double now);
  void on_device_recovery(std::size_t cluster, std::size_t device,
                          double now);
  void on_port_fault(std::size_t cluster, std::size_t device, unsigned port,
                     double now);
  void on_port_recovery(std::size_t cluster, std::size_t device,
                        unsigned port, double now);

  // ---- state ---------------------------------------------------------------

  std::size_t cold_standby_available() const { return cold_standby_; }

  /// Fraction of a device's capacity currently usable (1.0 minus isolated
  /// ports).
  double device_capacity_fraction(std::size_t cluster,
                                  std::size_t device) const;

  /// Number of isolated ports on a device slot.
  unsigned isolated_port_count(std::size_t cluster,
                               std::size_t device) const;

  /// True when every slot reports full capacity and no escalation is in
  /// flight — the "no leaked recovery state" invariant chaos smoke checks
  /// after a schedule fully recovers.
  bool quiescent() const { return isolated_ports_.empty(); }

  const Config& config() const { return config_; }

 private:
  /// Journals one action as a "failover" event in the controller's
  /// journal.
  void record(double now, std::string description);
  /// Drops the slot's isolated-port bookkeeping — the device in the slot
  /// was replaced or came back fresh, so stale counts must not keep
  /// shaving its reported capacity.
  void clear_port_state(std::size_t cluster, std::size_t device);

  Controller* controller_;
  Config config_;
  std::size_t cold_standby_;
  RecoveryListener* listener_ = nullptr;
  /// (cluster, device) -> isolated port count.
  std::unordered_map<std::uint64_t, unsigned> isolated_ports_;
};

}  // namespace sf::cluster

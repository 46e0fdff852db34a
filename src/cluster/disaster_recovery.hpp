// Disaster recovery (§6.1): one state machine from health observations to
// recovery actions.
//
// Health monitoring debounces: the controller watches heartbeats and port
// error rates and only acts on *sustained* evidence — a single missed
// heartbeat or a brief jitter burst must not flap a device in and out of
// the ECMP set. The same hysteresis applies symmetrically on the way back:
// one clean observation does not un-isolate a port, and one good heartbeat
// does not return a failed device to service.
//
// Confirmed transitions drive recovery at three levels:
//   * cluster — 1:1 hot-standby failover (XgwHCluster::fail_device flips
//     the ECMP set to the backups when the last primary dies);
//   * node — failed devices leave the ECMP set; when a cluster runs too
//     thin, a globally reserved cold-standby gateway is pulled in;
//   * port — a flapping port is isolated, shaving a fraction of its
//     device's capacity until it recovers.
//
// The debounce counters, the failed and isolated flags and the isolated-
// port counts live here together, so a decision recovery takes on its own
// (port-fault escalation to a device failure, cold-standby replacement)
// is the same state later observations read. Every action is journaled in
// the controller's journal under the "failover" category.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/controller.hpp"

namespace sf::cluster {

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
    /// Consecutive missed heartbeats before a device is failed.
    unsigned fail_after_missed = 3;
    /// Consecutive good heartbeats before a failed device recovers.
    unsigned recover_after_ok = 2;
  };

  /// Port packet-error rate above which an observation counts as bad.
  static constexpr double kPortErrorRateThreshold = 1e-6;
  /// Consecutive bad observations before a port is isolated.
  static constexpr unsigned kIsolatePortAfter = 2;
  /// Consecutive clean observations before an isolated port returns to
  /// the ECMP spread — the symmetric half of kIsolatePortAfter, so a
  /// flapping port cannot oscillate in and out on every probe.
  static constexpr unsigned kRecoverPortAfterOk = 2;

  /// A slot leaving service (`failed`) or serving again (heartbeat
  /// recovery or a fresh cold standby).
  struct Transition {
    std::size_t cluster = 0;
    std::size_t device = 0;
    bool failed = false;
    double time = 0;
  };
  using Transitions = std::vector<Transition>;

  DisasterRecovery(Controller* controller, Config config);

  // ---- health observations (debounced) -------------------------------------
  // Each returns the slot transitions it caused, in decision order.

  /// Feeds one heartbeat observation for a device.
  Transitions report_heartbeat(std::size_t cluster, std::size_t device,
                               bool ok, double now);
  /// Feeds one port error-rate observation.
  Transitions report_port_errors(std::size_t cluster, std::size_t device,
                                 unsigned port, double error_rate,
                                 double now);

  bool device_considered_failed(std::size_t cluster,
                                std::size_t device) const;
  bool port_considered_isolated(std::size_t cluster, std::size_t device,
                                unsigned port) const;

  // ---- recovery actions (confirmed transitions) ----------------------------

  Transitions on_device_failure(std::size_t cluster, std::size_t device,
                                double now);
  Transitions on_device_recovery(std::size_t cluster, std::size_t device,
                                 double now);
  Transitions on_port_fault(std::size_t cluster, std::size_t device,
                            unsigned port, double now);
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
  bool quiescent() const;

  const Config& config() const { return config_; }

 private:
  struct SlotState {
    unsigned consecutive_missed = 0;
    unsigned consecutive_ok = 0;
    bool failed = false;
    unsigned isolated_ports = 0;
  };
  struct PortState {
    unsigned consecutive_bad = 0;
    unsigned consecutive_ok = 0;
    bool isolated = false;
  };

  static std::uint64_t slot_key(std::size_t cluster, std::size_t device) {
    return (static_cast<std::uint64_t>(cluster) << 32) | device;
  }
  static std::uint64_t port_key(std::size_t cluster, std::size_t device,
                                unsigned port) {
    return (slot_key(cluster, device) << 12) | port;
  }

  /// Journals one action as a "failover" event in the controller's
  /// journal.
  void record(double now, std::string description);
  /// The slot serves again on fresh (or rebooted) hardware: forget its
  /// heartbeat debt, its ports' observation history and its isolated-port
  /// count, so stale isolation cannot outlive the hardware it described.
  void reset_slot(std::size_t cluster, std::size_t device);

  Controller* controller_;
  Config config_;
  std::size_t cold_standby_;
  std::unordered_map<std::uint64_t, SlotState> slots_;
  // Ordered so one slot's ports form a contiguous key range.
  std::map<std::uint64_t, PortState> ports_;
};

}  // namespace sf::cluster

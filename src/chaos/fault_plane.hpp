// sf::chaos — the fault plane under both chaos harnesses (DESIGN.md §8,
// §17).
//
// ChaosInjector (0.5 s probe ticks) and soak::ChaosTimeline (600 s interval
// steps) inject the same faults into the same recovery machinery; they
// differ in cadence and in the faces each owns. The plane holds what they
// share, written once:
//
//   * the HealthMonitor, with a RecoveryListener tap spliced in front of it
//     so every device transition recovery decides on its own (escalation,
//     cold-standby replacement) is seen at the instant it happens;
//   * device down-windows (crashes, flaps), during which heartbeats are
//     missed, and port error tracks (error bursts, link loss);
//   * the update channel's outage and brownout windows and each DPU node's
//     dark window, all held until the latest end of overlapping faults;
//   * the region leak audit.
//
// Each call is one phase of a tick — arm() the events due, then
// deliver_heartbeats(), deliver_port_reports(), restore_expired() — so a
// harness keeps its own phase order and interleaves its own work.
//
// Determinism: every container iterated is ordered, and heartbeats go out
// in fixed cluster-major order, port reports in sorted port-key order.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "cluster/health.hpp"
#include "core/region.hpp"
#include "workload/topology.hpp"

namespace sf::chaos {

/// Tolerance for comparing simulated instants against window edges.
inline constexpr double kTimeEpsilon = 1e-9;

/// A synthetic tenant a harness onboards mid-run: one /24 route out of the
/// /9 at `block` (the ordinal picks the /24) and two VMs behind NC
/// `nc_base` + ordinal. The injector and the timeline use disjoint blocks,
/// both outside generated topologies, so they can share a region.
workload::VpcRecord synthetic_vpc(net::Vni vni, unsigned ordinal,
                                  std::uint32_t block, std::uint32_t nc_base);

class FaultPlane {
 public:
  /// A device transition recovery made while probes were delivered.
  struct Transition {
    std::size_t cluster = 0;
    std::size_t device = 0;
    bool failed = false;
    double time = 0;
  };

  /// What restore_expired() lifted.
  struct Restored {
    bool channel = false;
    bool brownout = false;
    std::vector<std::size_t> dpu_nodes;
  };

  /// Port tracks owned by one fault.
  struct PortState {
    bool tracked = false;   // some port still reports or awaits recovery
    bool isolated = false;  // some port is isolated by the monitor
  };

  /// Splices the monitor (behind the tap) into the region's recovery
  /// listener slot; the destructor detaches it. `tick_s` is the probe
  /// cadence: one port error report goes out per tick.
  FaultPlane(core::SailfishRegion& region,
             cluster::HealthMonitor::Config health, double tick_s);
  ~FaultPlane();

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Arms the plane's part of `event`: down-windows, port tracks, channel
  /// outage and brownout, DPU dark window. Other kinds belong to the
  /// harness and arm nothing here. Windows and tracks are tagged with
  /// `owner`. Returns the instant injection ends.
  double arm(const ChaosEvent& event, std::size_t owner);

  /// Heartbeats in cluster-major order: missed while a window is active.
  void deliver_heartbeats(double now);
  /// Port error reports in sorted port-key order. Clean reports continue
  /// until the monitor lets the port back in, then the track retires.
  void deliver_port_reports(double now);
  /// Transitions recorded since the last deliver_heartbeats().
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Lifts the channel outage, the brownout and every DPU dark window
  /// whose latest end has passed.
  Restored restore_expired(double now);

  /// Whether a down-window covers the slot; `owner` receives its tag.
  bool slot_down(std::size_t cluster, std::size_t device, double now,
                 std::size_t* owner = nullptr) const;
  PortState port_state(std::size_t owner) const;
  bool channel_down() const { return channel_down_; }
  bool browned_out() const { return browned_out_; }
  /// When the node's latest dark window ends (or ended); restore_expired()
  /// brings it back at that instant.
  double dpu_dark_until(std::size_t node) const;
  /// A device, port or DPU fault is still injected, or recovery
  /// hysteresis is still unwinding.
  bool device_faults_active(double now) const;

  const cluster::HealthMonitor& monitor() const { return monitor_; }

  /// The one region leak audit: everything a fully recovered region must
  /// have unwound — control plane drained and undegraded, breaker closed,
  /// every device healthy, in ECMP and (with a monitor, e.g. a plane's) not
  /// failed in it, no ports isolated, desired state installed, DPU nodes
  /// back, and every tenant in `storm_vnis` at full service. Returns the
  /// violations.
  static std::vector<std::string> audit(
      const core::SailfishRegion& region, double now,
      const cluster::HealthMonitor* monitor,
      std::span<const net::Vni> storm_vnis);

 private:
  struct DownWindow {
    double start = 0;
    double end = 0;
    std::size_t owner = 0;
  };
  /// A port with outstanding injected error reports: `error_rate` while
  /// `bad_remaining` is positive, clean afterwards.
  struct PortTrack {
    std::size_t cluster = 0;
    std::size_t device = 0;
    unsigned port = 0;
    unsigned bad_remaining = 0;
    double error_rate = 0;
    std::vector<std::size_t> owners;
  };
  struct DpuDark {
    double until = -1;
    bool dark = false;
  };
  struct Tap;

  core::SailfishRegion& region_;
  cluster::HealthMonitor::Config health_;
  double tick_s_;
  cluster::HealthMonitor monitor_;
  std::unique_ptr<Tap> tap_;
  std::vector<Transition> transitions_;
  // slot -> down-windows; port key -> track; node -> dark window.
  std::map<std::uint64_t, std::vector<DownWindow>> windows_;
  std::map<std::uint64_t, PortTrack> tracks_;
  std::map<std::size_t, DpuDark> dpu_dark_;
  double channel_down_until_ = -1;
  bool channel_down_ = false;
  double brownout_until_ = -1;
  bool browned_out_ = false;
};

}  // namespace sf::chaos

// sf::chaos — the fault plane under both chaos harnesses (DESIGN.md §8,
// §17).
//
// ChaosInjector (0.5 s probe ticks) and soak::ChaosTimeline (600 s interval
// steps) inject the same faults into the same recovery machinery; they
// differ in cadence and in the faces each owns. The plane holds what they
// share, written once:
//
//   * the schedule cursor, which yields each event once, at the first tick
//     at or after its time;
//   * the observation feed into the region's DisasterRecovery: heartbeats
//     and port error reports go in, and the slot transitions each report
//     caused (including recovery's own escalations and cold-standby
//     replacements) come back, in decision order;
//   * device down-windows (crashes, flaps), during which heartbeats are
//     missed, and port error tracks (error bursts, link loss);
//   * the update channel's outage and brownout windows and each DPU node's
//     dark window, all held until the latest end of overlapping faults;
//   * tenant-storm windows and the synthetic-tenant onboarding wave;
//   * the final leak audit.
//
// Both harnesses run the same tick: fire what next_due() yields (arm() plus
// the harness's own faces), then observe() — heartbeats, port reports,
// restores of expired windows, the controller clock — then whatever the
// harness measures. Nothing here knows which harness is calling.
//
// Determinism: every container iterated is ordered, and heartbeats go out
// in fixed cluster-major order, port reports in sorted port-key order.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "core/region.hpp"
#include "workload/topology.hpp"

namespace sf::chaos {

/// Tolerance for comparing simulated instants against window edges.
inline constexpr double kTimeEpsilon = 1e-9;

/// Where a harness's synthetic tenants live. Tenant `ordinal` is VNI
/// `vni_base` + ordinal with one /24 route out of the /9 at `block` (the
/// ordinal picks the /24) and two VMs behind NC `nc_base` + ordinal. The
/// injector and the timeline use disjoint blocks, both outside generated
/// topologies, so they can share a region.
struct SyntheticBlock {
  net::Vni vni_base = 0;
  std::uint32_t block = 0;
  std::uint32_t nc_base = 0;
};

/// One onboarding wave: `count` fresh synthetic tenants, their ordinals
/// taken from `next_ordinal`, pushed through the controller. Returns how
/// many it admitted.
std::size_t onboard_wave(cluster::Controller& controller,
                         const SyntheticBlock& where, unsigned count,
                         unsigned& next_ordinal);

/// A fault's active span [start, end), tagged with the schedule index of
/// the event that armed it.
struct FaultWindow {
  double start = 0;
  double end = 0;
  std::size_t owner = 0;

  bool active(double now) const {
    return start <= now + kTimeEpsilon && now < end - kTimeEpsilon;
  }
};

/// A tenant storm: `vni` offers `multiplier` times its usual traffic while
/// the window is active.
struct StormWindow : FaultWindow {
  net::Vni vni = 0;
  double multiplier = 1.0;
};

class FaultPlane {
 public:
  /// What one observe() saw, in the order it happened: the probes'
  /// transitions, the windows lifted, the deferred ops replayed.
  struct Observation {
    cluster::DisasterRecovery::Transitions transitions;
    bool channel_restored = false;
    bool brownout_cleared = false;
    std::vector<std::size_t> dpu_nodes_restored;
    std::size_t replayed = 0;
  };

  /// Port tracks owned by one fault.
  struct PortState {
    bool tracked = false;   // some port still reports or awaits recovery
    bool isolated = false;  // some port is isolated by recovery
  };

  /// `tick_s` is the probe cadence: one port error report goes out per
  /// tick. The region's DisasterRecovery config sets the heartbeat
  /// thresholds. `schedule` must outlive the plane.
  FaultPlane(core::SailfishRegion& region, double tick_s,
             const ChaosSchedule& schedule);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// The schedule cursor: the index of the next event due at `now` (its
  /// time at or before it), each event once in schedule order; nullopt
  /// once none is due.
  std::optional<std::size_t> next_due(double now);
  std::size_t events_fired() const { return next_event_; }

  /// Arms the plane's part of `event`: down-windows, port tracks, channel
  /// outage and brownout, DPU dark window. Other kinds belong to the
  /// harness and arm nothing here. Windows and tracks are tagged with
  /// `owner`. Returns the instant injection ends.
  double arm(const ChaosEvent& event, std::size_t owner);

  /// Arms a tenant storm on `vni` over the event's [time, time + duration)
  /// with the event's error_rate as the multiplier.
  const StormWindow& arm_storm(const ChaosEvent& event, std::size_t owner,
                               net::Vni vni);
  /// Every storm armed, in arming order.
  const std::vector<StormWindow>& storms() const { return storms_; }

  /// One tick's observation: heartbeats in cluster-major order (missed
  /// while a down-window is active), port error reports in sorted
  /// port-key order, then the restores of every channel, brownout and DPU
  /// window whose latest end has passed, then the controller's clock. A
  /// slot the reports bring back into service is fresh hardware: its
  /// remaining down-windows are cut at once so its heartbeats arrive
  /// clean.
  Observation observe(double now);

  /// Whether a down-window covers the slot; `owner` receives its tag.
  bool slot_down(std::size_t cluster, std::size_t device, double now,
                 std::size_t* owner = nullptr) const;
  PortState port_state(std::size_t owner) const;
  bool channel_down() const { return channel_.held; }
  bool browned_out() const { return brownout_.held; }
  /// When the node's latest dark window ends (or ended); observe()
  /// brings it back at that instant.
  double dpu_dark_until(std::size_t node) const;
  /// A device, port or DPU fault is still injected, or recovery
  /// hysteresis is still unwinding.
  bool device_faults_active(double now) const;
  /// The channel is down or browned out, or table ops are still deferred.
  bool control_faults_active() const {
    return channel_.held || brownout_.held ||
           region_.controller().deferred_op_count() != 0;
  }

  /// The one region leak audit: everything a fully recovered region must
  /// have unwound — control plane drained and undegraded, breaker closed,
  /// every device healthy, in ECMP and not failed in disaster recovery, no
  /// ports isolated, desired state installed, DPU nodes back, and every
  /// tenant in `storm_vnis` at full service. Returns the violations.
  static std::vector<std::string> audit(const core::SailfishRegion& region,
                                        double now,
                                        std::span<const net::Vni> storm_vnis);
  /// The end-of-run audit: "N scheduled events never fired" when the
  /// cursor stopped short, then audit() with this plane's storm tenants.
  std::vector<std::string> final_audit(double now) const;

 private:
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
  /// A window held until the latest end of the faults that overlap it.
  struct HeldWindow {
    double until = -1;
    bool held = false;

    void hold(double end) {
      held = true;
      until = std::max(until, end);
    }
    /// Lets go once `now` reaches the end; returns whether it did.
    bool release(double now) {
      if (!held || now + kTimeEpsilon < until) return false;
      held = false;
      return true;
    }
  };

  core::SailfishRegion& region_;
  double tick_s_;
  const ChaosSchedule& schedule_;
  std::size_t next_event_ = 0;
  // slot -> down-windows; port key -> track; node -> dark window.
  std::map<std::uint64_t, std::vector<FaultWindow>> windows_;
  std::map<std::uint64_t, PortTrack> tracks_;
  std::map<std::size_t, HeldWindow> dpu_dark_;
  HeldWindow channel_;
  HeldWindow brownout_;
  std::vector<StormWindow> storms_;
};

}  // namespace sf::chaos

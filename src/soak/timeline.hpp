// sf::soak — the week-long composed chaos timeline (DESIGN.md §17).
//
// The ChaosInjector replays second-scale schedules with a 0.5 s probe
// tick; a simulated week at that cadence would be ~1.2M ticks. The soak
// instead advances in interval-sized steps (default 600 s) and needs
// faults whose lifecycles are visible at that granularity, so the
// timeline draws its own seeded schedule with durations in whole
// intervals. Each step is the chaos::FaultPlane tick the injector runs
// too — fire what is due, observe, report — and the timeline keeps only
// what differs at its cadence: the schedule draw, its storm face (weight
// multipliers on *existing* metered tenants), its churn face (onboarding
// plus VM-mapping re-target waves through the RCU publish path) and the
// re-target trickle while a brownout holds. Upgrade failures and
// second-scale flaps stay with the injector — their lifecycles are
// invisible between 600 s boundaries.
//
// Determinism: a pure function of (region construction inputs, config).
// Every container iterated is ordered, every random draw comes from one
// seeded Rng consumed in schedule order.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/fault_plane.hpp"
#include "chaos/schedule.hpp"
#include "core/region.hpp"

namespace sf::soak {

/// A tenant whose offered traffic is inflated (flow weights times
/// `multiplier`) this interval.
using StormSpec = chaos::StormWindow;

class ChaosTimeline {
 public:
  /// Storm shape: the tenant's flow weights are multiplied by a draw from
  /// [kStormMultiplierMin, kStormMultiplierMax].
  static constexpr double kStormMultiplierMin = 20.0;
  static constexpr double kStormMultiplierMax = 50.0;

  struct Config {
    std::uint64_t seed = 1;
    double interval_s = 600.0;
    double horizon_s = 7.0 * 86400.0;
    /// Mean scheduled faults per simulated day.
    double events_per_day = 8.0;
    /// Tenants eligible for storms (the region's real topology VNIs).
    std::vector<net::Vni> tenant_vnis;
    /// Live VM mappings churn storms re-target (VM migration waves
    /// through the rate-limited update channel — whole-VPC migration is
    /// refused once every cluster sits at its water level, so mapping
    /// re-targets are the churn that always lands on hardware tables).
    std::vector<tables::VmNcKey> migratable_vms;
  };

  struct StepResult {
    /// Ascending-VNI storms active this interval.
    std::vector<StormSpec> active_storms;
    /// Any device/port/DPU fault currently injected (heartbeats missed or
    /// error reports outstanding) — strict audits must wait.
    bool device_faults_active = false;
    /// Channel down/degraded, or deferred ops still parked.
    bool control_faults_active = false;
    std::size_t events_fired = 0;
    std::size_t deferred_ops = 0;
  };

  /// Draws the schedule and takes over the region's recovery listener
  /// (through the plane) for the timeline's lifetime.
  ChaosTimeline(core::SailfishRegion& region, Config config);

  /// Advances the timeline to the interval boundary at `now` (call with
  /// strictly increasing boundaries): fires due events, delivers probes,
  /// restores expired faults, drains the controller clock.
  StepResult step(double now);

  /// Strict end-of-run leak audit (call after the horizon plus enough
  /// settle intervals for hysteresis to unwind). Returns violations.
  std::vector<std::string> final_audit(double now) const {
    return plane_.final_audit(now);
  }

  const chaos::ChaosSchedule& schedule() const { return schedule_; }
  std::size_t events_fired() const { return plane_.events_fired(); }
  /// Per-kind counts over the whole drawn schedule.
  std::map<std::string, std::size_t> event_counts() const;

 private:
  void fire_event(const chaos::ChaosEvent& event, std::size_t index);
  /// A wave of VM-mapping re-targets over migratable_vms — hardware-tier
  /// updates that consume the (possibly refused) update channel.
  void retarget_wave(unsigned count);

  core::SailfishRegion& region_;
  Config config_;
  chaos::ChaosSchedule schedule_;
  chaos::FaultPlane plane_;
  unsigned churn_ordinal_next_ = 0;
  /// VM-migration waves: next mapping to re-target and the wave ordinal
  /// (each wave lands the VM on a fresh synthetic NC).
  unsigned vm_cursor_ = 0;
  unsigned vm_wave_next_ = 0;
};

}  // namespace sf::soak

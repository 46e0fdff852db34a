// sf::chaos — the fault injector and recovery verifier.
//
// The injector replays a ChaosSchedule against a full SailfishRegion on a
// fixed 0.5 s probe tick. Device, port, channel, brownout and DPU faults go
// through the FaultPlane (fault_plane.hpp), which turns them into the
// observations health monitoring would see; the injector owns the other
// faces (update, tenant and churn storms, aborted upgrades) and watches
// the recovery machinery converge. run() is the plane's tick, one named
// phase after another: fire the due faces, observe and log, update each
// fault's lifecycle, send probes, sample the interval simulator, check for
// termination. For every fault it measures time-to-detect,
// time-to-reroute and time-to-recover, counts the probe packets lost
// inside the convergence window (blackholed at a dead-but-not-yet-failed
// device, or dropped with a verdict reason), and samples the interval
// simulator for the drop-rate-under-failure series (the Fig. 19 band with
// faults in it).
//
// Determinism contract: the whole run is a pure function of (region
// construction inputs, schedule, config). The event log and the report's
// JSON rendering are byte-identical across runs and across interval-engine
// thread counts; a regression test asserts exactly that.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "core/region.hpp"
#include "telemetry/journal.hpp"
#include "workload/flowgen.hpp"

namespace sf::chaos {

/// Per-fault convergence record.
struct FaultRecord {
  ChaosEvent event;
  double detected_at = -1;   // health monitoring confirmed the fault
  double rerouted_at = -1;   // serving set / capacity reflects it
  double recovered_at = -1;  // back to full health
  /// Probe packets ECMP-steered into a dead device before re-steering.
  std::uint64_t blackholed = 0;
  /// The slot was replaced by a cold standby mid-fault.
  bool replaced = false;
  /// A port fault escalated to node level (all ports isolated).
  bool escalated = false;

  double time_to_detect() const {
    return detected_at < 0 ? -1 : detected_at - event.time;
  }
  double time_to_reroute() const {
    return rerouted_at < 0 ? -1 : rerouted_at - event.time;
  }
};

/// Everything a chaos run measured, plus the convergence verdict.
struct ChaosReport {
  std::uint64_t schedule_seed = 0;
  std::size_t events_applied = 0;
  std::vector<FaultRecord> faults;

  // Aggregates over faults that were detected / rerouted.
  double mean_time_to_detect = 0;
  double max_time_to_detect = 0;
  double mean_time_to_reroute = 0;
  double max_time_to_reroute = 0;

  std::uint64_t probes_sent = 0;
  std::uint64_t probe_drops = 0;  // blackholed + verdict drops
  double peak_drop_rate = 0;      // max over interval-sim samples
  /// (time, drop rate) samples from the interval simulator.
  std::vector<std::pair<double, double>> drop_rate_series;

  /// One row per interval sample taken while a tenant storm was active:
  /// the guard's ladder tier for the storm tenant and the collateral
  /// damage on everyone else. Empty (and absent from the JSON) for
  /// schedules without kTenantStorm events.
  struct StormSample {
    double time = 0;
    net::Vni vni = 0;
    int tier = 0;                  // guard::Tier at the end of the interval
    double storm_offered_pps = 0;
    double storm_shed_pps = 0;
    /// Drop rate over the non-storm population only — the isolation
    /// number the storm is meant to leave unharmed.
    double victim_drop_rate = 0;
  };
  std::vector<StormSample> storm_samples;
  /// Worst victim drop rate seen across storm samples.
  double peak_victim_drop_rate = 0;

  /// One row per interval sample taken while the schedule carries DPU
  /// faults: how the three-tier placement rode out the node loss. Empty
  /// (and absent from the JSON) for schedules without kDpuFailure events.
  struct DpuSample {
    double time = 0;
    double dpu_pps = 0;            // traffic the DPU tier still served
    double overflow_x86_pps = 0;   // overflow riding the punt lanes
    double punt_queue_occupancy = 0;
    double p99_latency_us = 0;
    std::uint64_t dpu_flow_entries = 0;
  };
  std::vector<DpuSample> dpu_samples;

  /// Circuit-breaker activity while the schedule carries controller
  /// brownouts. Tracked (and rendered in the JSON) only when the schedule
  /// has kControllerBrownout events and the controller has a breaker, so
  /// every pre-brownout report renders byte-identically.
  bool breaker_tracked = false;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_reopens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_short_circuited = 0;
  /// (time, transition) pairs in tick order: "open" (breaker tripped),
  /// "reopen" (half-open probe refused), "close" (probe succeeded).
  std::vector<std::pair<double, std::string>> breaker_transitions;

  /// Post-run invariant violations (stale DR state, unconverged queue,
  /// devices still out). Empty means the region fully recovered.
  std::vector<std::string> leaks;
  bool converged() const { return leaks.empty(); }

  /// Stable JSON rendering — the convergence-metrics artifact the bench
  /// writes and the determinism tests compare byte for byte.
  std::string to_json() const;
};

class ChaosInjector {
 public:
  /// Probe tick: heartbeat and port-scrape cadence (seconds). Schedule
  /// times should be multiples of it.
  static constexpr double kProbeIntervalS = 0.5;
  /// Hardware-scope flows probed through the functional path per tick.
  static constexpr std::size_t kProbeFlows = 24;
  /// Ticks between interval-simulator samples (one every 2 s).
  static constexpr std::size_t kIntervalEvery = 4;
  /// Tenant-storm shape (kTenantStorm). The storm tenant's byte-rate limit
  /// is armed on the region's guard as this fraction of `interval_bps`; the
  /// flood itself is Zipf-skewed over the event's `count` flows with this
  /// exponent.
  static constexpr double kStormLimitFraction = 0.05;
  static constexpr double kStormZipfExponent = 1.2;

  struct Config {
    /// When > 0, run the interval simulator at this offered rate every
    /// kIntervalEvery ticks and record the drop-rate series.
    double interval_bps = 0;
    /// Extra time after the last scheduled fault for recovery to finish.
    double settle_s = 30.0;
  };

  ChaosInjector(core::SailfishRegion& region,
                std::span<const workload::Flow> flows, Config config);

  /// Replays the schedule to quiescence (or the settle deadline) and
  /// returns the measured report. Repeatable, but the region keeps its
  /// recovery state and any tables the run installed, so a later run picks
  /// up where this one stopped — drive one schedule per region for
  /// clean-room results.
  ChaosReport run(const ChaosSchedule& schedule);

  /// The replay log of the last run() — byte-identical for equal inputs.
  const telemetry::EventJournal& log() const { return log_; }

 private:
  struct Run;

  core::SailfishRegion& region_;
  std::span<const workload::Flow> flows_;
  Config config_;
  telemetry::EventJournal log_;
  net::Vni storm_vni_next_ = 0;
};

}  // namespace sf::chaos

// The full Sailfish region (Fig. 10): XGW-H clusters behind the load
// balancers absorbing the majority of traffic, an XGW-x86 fleet behind
// them holding the complete tables and the stateful SNAT, one central
// controller splitting tables across clusters, and disaster recovery.
//
// Two ways to use it:
//   * the functional path — process() runs one packet end to end through
//     the guard, the hardware, the DPU and the software gateway; trace()
//     runs the same path and records each decision as it is taken, the
//     Vtrace-style diagnosis of §6.1 ([17]);
//   * the interval simulator — simulate_interval() takes a flow population
//     and an offered rate and reports drops, the HW/SW traffic split and
//     the loopback-pipe balance: the inputs of Figs. 19-22.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/controller.hpp"
#include "cluster/disaster_recovery.hpp"
#include "dataplane/gateway.hpp"
#include "dataplane/shard_engine.hpp"
#include "dpu/tier_placer.hpp"
#include "dpu/xgw_dpu.hpp"
#include "guard/guard.hpp"
#include "guard/punt_queue.hpp"
#include "telemetry/registry.hpp"
#include "workload/flowgen.hpp"
#include "x86/xgw_x86.hpp"

namespace sf::core {

struct TraceHop {
  std::string where;    // "vni-director", "cluster 2 ecmp", "xgw-h", ...
  std::string detail;   // human-readable decision
  /// Counter context at this hop, read from the device's registry *after*
  /// the packet passed — e.g. how many packets/drops that gateway has
  /// seen, so one trace shows whether the hop is an outlier or a pattern.
  std::vector<std::pair<std::string, std::uint64_t>> counters = {};
};

/// One packet's hop-by-hop story through the region (SailfishRegion::trace).
struct PathTrace {
  std::vector<TraceHop> hops;
  dataplane::Verdict result;

  std::string to_string() const;
};

class SailfishRegion : public dataplane::Gateway {
 public:
  struct Config {
    cluster::Controller::Config controller;
    /// Recovery coordination (cold-standby pool, port-isolation shape).
    cluster::DisasterRecovery::Config recovery;
    std::size_t x86_nodes = 4;
    x86::XgwX86::Config x86_template;
    /// Residual per-packet loss probability of the hardware path — port
    /// bit errors and rare microbursts. The 1e-11..1e-10 band of Fig. 19.
    double hardware_loss_floor = 3e-11;
    unsigned x86_ecmp_max_next_hops = 64;
    /// Interval engine shape: the shard count fixes how many sketches the
    /// DPU placer keeps (part of the simulation's identity); threads is
    /// pure parallelism — results never depend on it.
    dataplane::ShardPlan interval_engine{};
    /// Per-tenant overload guard (sf::guard, DESIGN.md §10). Off by
    /// default. When absent the region registers no guard counters and
    /// behaves byte-identically to a guard-less build. The interval
    /// pre-pass steps every tenant's ladder once per interval, on one
    /// thread.
    bool enable_guard = false;
    guard::TenantGuard::Config guard;
    /// Hardware→x86 punt path. When enabled, XGW-H fallback traffic and
    /// tier-1 meter-degraded packets go through a bounded per-device punt
    /// queue toward the *paired* XGW-x86 (queue-full backpressure drops
    /// with kPuntQueueFull); when disabled, fallback keeps the legacy
    /// tuple-ECMP steering and tier-1 non-established packets are shed.
    bool enable_punt_path = false;
    guard::PuntQueue::Config punt_queue;
    /// DPU middle tier (DESIGN.md §11): a rack of flow-offload boxes
    /// between XGW-H and the x86 fleet. Promotion/demotion is driven by
    /// the TierPlacer's sketches each interval; on the functional path,
    /// software-tier packets (overflow VPCs, guard punts, XGW-H fallback)
    /// try their placed DPU entry before the punt queue / x86. Off by
    /// default; when off nothing is built, no counters register, and
    /// every artifact is byte-identical to a DPU-less build.
    bool enable_dpu = false;
    std::size_t dpu_nodes = 2;
    dpu::XgwDpu::Config dpu_template;
    dpu::TierPlacer::Config tier_placer;
  };

  explicit SailfishRegion(Config config);

  // ---- provisioning ---------------------------------------------------------

  /// Installs the topology into hardware (split by VNI across clusters)
  /// and mirrors everything into every XGW-x86 node. Returns admitted VPCs.
  std::size_t install_topology(const workload::RegionTopology& region);

  cluster::Controller& controller() { return controller_; }
  const cluster::Controller& controller() const { return controller_; }
  cluster::DisasterRecovery& disaster_recovery() { return *recovery_; }
  const cluster::DisasterRecovery& disaster_recovery() const {
    return *recovery_;
  }

  std::size_t x86_node_count() const { return x86_nodes_.size(); }
  x86::XgwX86& x86_node(std::size_t index) { return *x86_nodes_.at(index); }

  /// The tenant guard; nullptr when not configured. Non-const so chaos storms can arm limits at runtime.
  guard::TenantGuard* tenant_guard() { return guard_.get(); }
  const guard::TenantGuard* tenant_guard() const { return guard_.get(); }
  const guard::PuntQueue* punt_queue() const { return punt_queue_.get(); }

  /// The DPU tier; empty/nullptr when not configured.
  std::size_t dpu_node_count() const { return dpu_nodes_.size(); }
  dpu::XgwDpu& dpu_node(std::size_t index) { return *dpu_nodes_.at(index); }
  const dpu::XgwDpu& dpu_node(std::size_t index) const {
    return *dpu_nodes_.at(index);
  }
  dpu::TierPlacer* tier_placer() { return placer_.get(); }
  const dpu::TierPlacer* tier_placer() const { return placer_.get(); }

  /// Chaos hook: fails (or recovers) one DPU node. Failure clears the
  /// node's flow table AND the placer's record of it — elephants fall
  /// back to x86 immediately and re-promote from scratch on recovery.
  void set_dpu_failed(std::size_t node, bool failed);

  // ---- functional end-to-end path (dataplane::Gateway) ----------------------

  /// Runs one packet end to end: the tenant guard (when it meters), then
  /// LB -> XGW-H, and for fallback and software-tier traffic the DPU tier
  /// and the punt lane or ECMP on to the XGW-x86 fleet. `software_path`
  /// marks verdicts produced by the software gateway;
  /// dataplane::path_label() names the Fig. 10 path.
  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now = 0) override {
    return process_packet(packet, now, nullptr);
  }

  /// process() with a recorder: the same packet path, with every branch
  /// it takes recorded as a hop (guard, director, cluster ECMP, XGW-H
  /// verdict, underlay, DPU, punt lane, x86 node). A traced packet is a
  /// real packet — it counts and mutates state exactly as process() does.
  PathTrace trace(const net::OverlayPacket& packet, double now = 0) {
    PathTrace trace;
    trace.result = process_packet(packet, now, &trace);
    return trace;
  }

  // ---- interval performance simulation ----------------------------------------

  struct IntervalReport {
    double offered_bps = 0;
    double offered_pps = 0;
    double dropped_pps = 0;
    double drop_rate = 0;
    /// Traffic carried by the software path.
    double fallback_bps = 0;
    double fallback_pps = 0;
    double fallback_ratio = 0;
    /// Bits/s crossing each loopback egress pipe, summed over clusters
    /// (indices 1 and 3 are the interesting ones — Figs. 20/21).
    std::array<double, 4> shard_pipe_bps{};
    double x86_max_core_utilization = 0;
    /// Packets/s shed by the tenant guard this interval (already included
    /// in dropped_pps). Zero when no guard is configured.
    double guard_shed_pps = 0;
    /// Per metered tenant: offered rate, shed rate and ladder tier at the
    /// end of the interval, ascending VNI. Empty without a guard.
    std::vector<guard::TenantGuard::TenantInterval> guard_tenants;
    // ---- three-tier placement (zero unless overflow VPCs exist or the
    // DPU tier is built) -----------------------------------------------------
    /// Offered by software-tier (overflow-admitted) tenants.
    double overflow_pps = 0;
    /// Served by the DPU tier / crossing to x86 after the DPU miss.
    double dpu_pps = 0;
    double dpu_bps = 0;
    double overflow_x86_pps = 0;
    /// Fluid overflow-lane occupancy toward x86, as a fraction of the
    /// drain capacity (1.0 == saturated; excess drops as kPuntQueueFull).
    double punt_queue_occupancy = 0;
    /// pps-weighted p99/p999 forwarding latency across the served path
    /// classes (ASIC, DPU, x86, x86-with-queue-delay).
    double p99_latency_us = 0;
    double p999_latency_us = 0;
    std::size_t dpu_flow_entries = 0;
    /// Placed entries / total DPU table capacity, in [0, 1].
    double dpu_table_occupancy = 0;
    std::size_t dpu_promotions = 0;
    std::size_t dpu_demotions = 0;
  };

  /// Simulates one interval: each flow offers weight * total_bps.
  /// `jitter_key` deterministically perturbs the hardware loss floor so a
  /// time series shows the Fig. 19 band rather than a flat line.
  ///
  /// Internally the flows are classified in a fixed set of contiguous
  /// chunks over the engine's thread pool (classifying a flow writes only
  /// its own slot), then one single-threaded sweep in flow order sums
  /// every load, and the x86 nodes simulate in parallel. The report is
  /// byte-identical for every thread count: every floating-point sum
  /// receives its additions in flow order on one thread. The guard and
  /// DPU sketch pre-passes are single-threaded flow-order sweeps too.
  IntervalReport simulate_interval(std::span<const workload::Flow> flows,
                                   double total_bps,
                                   std::uint64_t jitter_key = 0) const;

  /// Resizes the interval engine's worker pool (results unchanged —
  /// the shard count stays fixed).
  void set_interval_threads(std::size_t threads) {
    engine_->set_threads(threads);
  }
  const dataplane::ShardPlan& interval_plan() const {
    return engine_->plan();
  }

  // ---- telemetry ------------------------------------------------------------

  /// Region-level counters. process() counts per-path outcomes
  /// ("region.hw_forwarded", "region.sw_snat", ...) and, for drops, a
  /// per-reason breakdown ("region.drop.no live device in ECMP set", ...)
  /// whose snapshot deltas measure packets lost inside a failover
  /// convergence window; simulate_interval()
  /// accumulates running sums of the interval rates ("region.offered_bps_sum",
  /// "region.fallback_bps_sum", "region.pipe1_bps_sum", ...) so time series
  /// fall out of snapshot deltas. Dropped pps is kept in micro-pps
  /// ("region.dropped_upps_sum") to preserve the tiny loss-floor rates.
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

  /// Everything at once: region counters, controller + per-device
  /// registries ("clusterC.deviceD."), the x86 fleet ("x86N.") and the
  /// DPU tier ("dpuN.", only when built).
  telemetry::Snapshot telemetry_snapshot() const;

  /// Publishes point-in-time pressure gauges into the region registry:
  /// punt-queue occupancy + high watermark (when the punt path is built),
  /// aggregate x86 flow-cache occupancy + high watermark, and DPU table
  /// occupancy (when the tier is built). Opt-in — a region that never
  /// calls this keeps gauge-free (pre-gauge byte-identical) snapshots.
  void publish_pressure_gauges(double now);

  const Config& config() const { return config_; }

 private:
  /// The one packet path. `trace` is null on process(); hop strings and
  /// registry reads happen only when it is set.
  dataplane::Verdict process_packet(const net::OverlayPacket& packet,
                                    double now, PathTrace* trace);
  /// Records the director and cluster-ECMP hops; returns the XGW-H the
  /// packet will reach, or nullptr when it stops before any device.
  const xgwh::XgwH* trace_steering(const net::OverlayPacket& packet,
                                   PathTrace& trace) const;
  /// Tuple-ECMP pick of an XGW-x86 node: the legacy fallback steering,
  /// which the interval model also charges software flows to.
  std::size_t x86_index_for(const net::FiveTuple& tuple) const {
    return x86_ecmp_.pick(tuple).value_or(0);
  }
  void count_drop_reason(dataplane::DropReason reason);
  /// The punt lane a packet uses: the serving (cluster, device) pair.
  std::pair<std::size_t, std::size_t> punt_lane_for(
      const net::OverlayPacket& packet) const;
  /// Runs the packet over the punt path: bounded queue toward the paired
  /// XGW-x86 (kPuntQueueFull on overflow). `allow_cache` is false for
  /// meter-degraded punts (they must not touch the x86 flow cache).
  dataplane::Verdict punt_to_x86(const net::OverlayPacket& packet,
                                 double now, double base_latency_us,
                                 bool allow_cache, PathTrace* trace);
  /// Shared software-path accounting for fallback/punt verdicts.
  dataplane::Verdict finish_software(const x86::XgwX86& node,
                                     x86::X86Result sw,
                                     double extra_latency_us,
                                     PathTrace* trace);
  /// Tries the DPU tier for one packet: nullopt when the tier is absent,
  /// the flow is not placed, or the placed node failed (caller continues
  /// toward x86 as if the tier did not exist).
  std::optional<dataplane::Verdict> try_dpu(const net::OverlayPacket& packet,
                                            double now,
                                            double extra_latency_us,
                                            PathTrace* trace);
  /// Serves a packet off the hardware path (XGW-H fallback, software-tier
  /// tenants, guard punts): DPU first, then the punt path or, without
  /// one, legacy tuple-ECMP toward x86.
  dataplane::Verdict serve_software(const net::OverlayPacket& packet,
                                    double now, double base_latency_us,
                                    bool allow_cache, PathTrace* trace);

  Config config_;
  cluster::Controller controller_;
  std::vector<std::unique_ptr<x86::XgwX86>> x86_nodes_;
  cluster::EcmpGroup x86_ecmp_;
  std::unique_ptr<cluster::DisasterRecovery> recovery_;
  /// Built only when configured (see Config::enable_guard).
  std::unique_ptr<guard::TenantGuard> guard_;
  std::unique_ptr<guard::PuntQueue> punt_queue_;
  /// Built only when configured (see Config::enable_dpu).
  std::vector<std::unique_ptr<dpu::XgwDpu>> dpu_nodes_;
  std::unique_ptr<dpu::TierPlacer> placer_;

  // unique_ptr so the const interval simulator can drive the pool.
  std::unique_ptr<dataplane::ShardEngine> engine_;

  // unique_ptr so the const interval simulator can record too.
  std::unique_ptr<telemetry::Registry> registry_;
  telemetry::Counter* ctr_packets_ = nullptr;
  telemetry::Counter* ctr_hw_forwarded_ = nullptr;
  telemetry::Counter* ctr_hw_tunnel_ = nullptr;
  telemetry::Counter* ctr_sw_forwarded_ = nullptr;
  telemetry::Counter* ctr_sw_snat_ = nullptr;
  telemetry::Counter* ctr_dropped_ = nullptr;
  telemetry::Counter* ctr_intervals_ = nullptr;
  telemetry::Counter* ctr_offered_bps_sum_ = nullptr;
  telemetry::Counter* ctr_offered_pps_sum_ = nullptr;
  telemetry::Counter* ctr_dropped_upps_sum_ = nullptr;
  telemetry::Counter* ctr_fallback_bps_sum_ = nullptr;
  telemetry::Counter* ctr_pipe1_bps_sum_ = nullptr;
  telemetry::Counter* ctr_pipe3_bps_sum_ = nullptr;
  // Guard counters, registered only when the guard/punt path is built so
  // guard-less regions keep byte-identical telemetry snapshots.
  telemetry::Counter* ctr_guard_admitted_ = nullptr;
  telemetry::Counter* ctr_guard_established_ = nullptr;
  telemetry::Counter* ctr_guard_punted_ = nullptr;
  telemetry::Counter* ctr_guard_punt_queue_full_ = nullptr;
  telemetry::Counter* ctr_guard_shed_new_flow_ = nullptr;
  telemetry::Counter* ctr_guard_shed_tenant_ = nullptr;
  telemetry::Counter* ctr_guard_escalations_ = nullptr;
  telemetry::Counter* ctr_guard_deescalations_ = nullptr;
  telemetry::Counter* ctr_guard_shed_upps_sum_ = nullptr;
  // DPU counters, registered only when the tier is built so DPU-less
  // regions keep byte-identical telemetry snapshots.
  telemetry::Counter* ctr_dpu_served_ = nullptr;
  telemetry::Counter* ctr_dpu_fallback_ = nullptr;
  telemetry::Counter* ctr_dpu_promotions_ = nullptr;
  telemetry::Counter* ctr_dpu_demotions_ = nullptr;
  telemetry::Counter* ctr_dpu_pps_sum_ = nullptr;
};

}  // namespace sf::core

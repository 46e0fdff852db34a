#include "chaos/injector.hpp"

#include <algorithm>
#include <cmath>

#include "chaos/fault_plane.hpp"
#include "cluster/upgrade.hpp"
#include "guard/guard.hpp"
#include "net/packet.hpp"
#include "sim/table_printer.hpp"
#include "tables/entry.hpp"

namespace sf::chaos {

using sim::format;

namespace {

bool is_port_fault(FaultKind kind) {
  return kind == FaultKind::kPortErrorBurst || kind == FaultKind::kLinkLoss;
}

bool is_device_fault(FaultKind kind) {
  return kind == FaultKind::kDeviceCrash || kind == FaultKind::kDeviceFlap;
}

// Storm tenants take VNIs from 0xC0DE00 (outside topology VNIs), /24s out
// of 10.0/9 and NCs out of 172.16/16.
constexpr SyntheticBlock kStormTenants{0xC0DE00, 0x0a000000u, 0xac100000u};

/// Appends a storm tenant's flood to a flow population: `flow_count`
/// Zipf-skewed flows whose weights sum to `weight_total`, addressed
/// between the storm VPC's two VMs so every packet resolves through the
/// tables storm provisioning installed.
void append_storm_flows(std::vector<workload::Flow>& out, net::Vni vni,
                        unsigned flow_count, double weight_total,
                        double zipf_exponent) {
  const std::uint32_t ordinal = vni - kStormTenants.vni_base;
  const std::uint32_t base = kStormTenants.block | ((ordinal & 0xffffu) << 8);
  double norm = 0;
  for (unsigned k = 0; k < flow_count; ++k) {
    norm += 1.0 / std::pow(static_cast<double>(k + 1), zipf_exponent);
  }
  for (unsigned k = 0; k < flow_count; ++k) {
    workload::Flow flow;
    flow.vni = vni;
    flow.scope = tables::RouteScope::kLocal;
    flow.dst_nc = net::Ipv4Addr(kStormTenants.nc_base + ordinal);
    flow.tuple.src = net::IpAddr(net::Ipv4Addr(base + 1));
    flow.tuple.dst = net::IpAddr(net::Ipv4Addr(base + 2));
    flow.tuple.proto = 17;
    flow.tuple.src_port = static_cast<std::uint16_t>(0x4000 + k);
    flow.tuple.dst_port = 4789;
    flow.weight = weight_total / norm /
                  std::pow(static_cast<double>(k + 1), zipf_exponent);
    out.push_back(flow);
  }
}

}  // namespace

/// One run() in flight: the plane, the report under construction and each
/// fault's lifecycle. Each phase is one step of the tick, called in run()'s
/// order.
struct ChaosInjector::Run {
  ChaosInjector& injector;
  core::SailfishRegion& region;
  cluster::Controller& controller;
  sim::EventLog& log;
  const bool sampling;
  const double deadline;
  FaultPlane plane;
  ChaosReport report;
  // Per fault: injection keeps running until this instant (down windows,
  // report bursts); recovery is then verified against the live machinery.
  std::vector<double> ends;
  bool has_dpu_events = false;
  // Brownout transitions are observed by diffing the breaker's stats tick
  // over tick.
  const guard::CircuitBreaker* breaker;
  guard::CircuitBreaker::Stats breaker_base{};
  guard::CircuitBreaker::Stats breaker_prev{};
  // The last interval sample's DPU-served rate: a kDpuFailure recovers
  // when the placer re-promotes elephants onto the node after the plane
  // restores it.
  double last_dpu_pps = 0;
  double last_dpu_sample_at = -1;

  Run(ChaosInjector& owner, const ChaosSchedule& schedule)
      : injector(owner),
        region(owner.region_),
        controller(owner.region_.controller()),
        log(owner.log_),
        sampling(owner.config_.interval_bps > 0),
        deadline(schedule.horizon() + owner.config_.settle_s),
        plane(region, cluster::HealthMonitor::Config{}, kProbeIntervalS,
              schedule),
        ends(schedule.size()),
        breaker(controller.breaker()) {
    report.schedule_seed = schedule.seed();
    report.faults.reserve(schedule.size());
    bool has_brownout_events = false;
    for (const ChaosEvent& event : schedule.events()) {
      report.faults.push_back(FaultRecord{event});
      has_brownout_events =
          has_brownout_events || event.kind == FaultKind::kControllerBrownout;
      has_dpu_events = has_dpu_events || event.kind == FaultKind::kDpuFailure;
    }
    report.breaker_tracked = has_brownout_events && breaker != nullptr;
    if (breaker != nullptr) breaker_base = breaker->stats();
    breaker_prev = breaker_base;
  }

  /// Fault `i` has been injected and has not yet recovered.
  bool in_flight(std::size_t i, double now) const {
    const FaultRecord& record = report.faults[i];
    return record.recovered_at < 0 && record.event.time <= now + kTimeEpsilon;
  }
  /// Retires fault `i` as recovered at `at`, with the log line saying why.
  void recover(std::size_t i, double at, double now, const std::string& why) {
    report.faults[i].recovered_at = at;
    log.append(now, "recover", why);
  }
  /// Retires fault `i` at injection: detected and recovered on the spot.
  void retire(std::size_t i, double now) {
    report.faults[i].detected_at = now;
    report.faults[i].recovered_at = now;
  }
  /// Provisions `count` storm tenants through the update channel.
  std::size_t onboard(unsigned count) {
    return onboard_wave(controller, kStormTenants, count,
                        injector.storm_vni_next_);
  }

  // ---- phase 1: fire the schedule events due at this tick ----------------
  void fire_due(double now) {
    while (const std::optional<std::size_t> index = plane.next_due(now)) {
      fire(*index, now);
    }
  }

  void fire(std::size_t index, double now) {
    FaultRecord& record = report.faults[index];
    const ChaosEvent& event = record.event;
    double& end = ends[index];
    log.append(now, "inject", event.to_string());
    switch (event.kind) {
      case FaultKind::kDeviceCrash:
      case FaultKind::kDeviceFlap:
      case FaultKind::kPortErrorBurst:
      case FaultKind::kLinkLoss:
        end = plane.arm(event, index);
        break;
      case FaultKind::kChannelOutage: {
        const bool was_down = plane.channel_down();
        end = plane.arm(event, index);
        if (!was_down) log.append(now, "channel", "update channel down");
        record.detected_at = now;
        break;
      }
      case FaultKind::kUpdateStorm: {
        const std::size_t admitted = onboard(event.count);
        record.detected_at = now;
        log.append(now, "storm",
                   format("%zu vpcs admitted, %zu table ops deferred",
                          admitted, controller.deferred_op_count()));
        break;
      }
      case FaultKind::kMidUpgradeFailure: {
        cluster::XgwHCluster& c = controller.cluster(event.cluster);
        const std::size_t fail_at = event.device % c.config().primary_devices;
        std::size_t invocation = 0;
        cluster::RollingUpgrade roll;
        const cluster::RollingUpgrade::Result result = roll.run(
            c, [&](xgwh::XgwH&) { return invocation++ != fail_at; },
            [&](const cluster::XgwHCluster& cc) { return !cc.failed_over(); });
        retire(index, now);
        record.rerouted_at = now;
        log.append(now, "upgrade",
                   result.completed ? "roll completed"
                                    : "roll aborted: " + result.abort_reason);
        break;
      }
      case FaultKind::kTenantStorm: {
        const net::Vni vni = kStormTenants.vni_base + injector.storm_vni_next_;
        onboard(1);
        guard::TenantGuard* guard = region.tenant_guard();
        if (guard == nullptr || !sampling) {
          // Without a guard (or interval sampling to meter against) there
          // is nothing to degrade or verify — retire immediately.
          retire(index, now);
          log.append(now, "tenant-storm",
                     "skipped: region has no guard or interval sampling");
          break;
        }
        const double limit_bps =
            kStormLimitFraction * injector.config_.interval_bps;
        guard->set_limit(guard::TenantLimit{vni, limit_bps, 0.0});
        end = plane.arm_storm(event, index, vni).end;
        record.detected_at = now;
        log.append(now, "tenant-storm",
                   format("vni %u armed: limit %.3e bps, flood %.1fx region "
                          "rate over %u flows for %.1fs",
                          static_cast<unsigned>(vni), limit_bps,
                          event.error_rate, event.count, event.duration));
        break;
      }
      case FaultKind::kChurnStorm: {
        // Tenant-onboarding wave: a burst of new VPCs through the update
        // channel (each is several route/mapping table ops)...
        const unsigned first_ordinal = injector.storm_vni_next_;
        const std::size_t admitted = onboard(event.count);
        // ...then a VM-migration wave: the freshly onboarded tenants
        // immediately re-place onto other clusters, churning both the
        // source and target cluster tables mid-run.
        std::size_t migrated = 0;
        if (controller.cluster_count() > 1) {
          for (unsigned v = 0; v < event.count; ++v) {
            const net::Vni vni = kStormTenants.vni_base +
                                 static_cast<net::Vni>(first_ordinal + v);
            const std::uint32_t target = static_cast<std::uint32_t>(
                (event.cluster + 1 + v) % controller.cluster_count());
            if (controller.migrate_vpc(vni, target)) ++migrated;
          }
        }
        record.detected_at = now;
        log.append(now, "churn-storm",
                   format("%zu vpcs onboarded, %zu migrated, %zu table ops "
                          "deferred",
                          admitted, migrated, controller.deferred_op_count()));
        break;
      }
      case FaultKind::kDpuFailure: {
        if (region.dpu_node_count() == 0) {
          // No DPU tier in this region — nothing to fail or verify.
          retire(index, now);
          log.append(now, "dpu-failure", "skipped: region has no DPU tier");
          break;
        }
        const std::size_t node = event.device % region.dpu_node_count();
        const std::uint64_t placed_before = region.dpu_node(node).flow_count();
        end = plane.arm(event, index);
        // The failure is injected below the health plane: the region fails
        // the node over synchronously (placement misses fall back to x86),
        // so detect and reroute coincide with injection.
        record.detected_at = now;
        record.rerouted_at = now;
        log.append(now, "dpu-failure",
                   format("node %zu dark for %.1fs, %llu placed flows "
                          "failing over to x86",
                          node, event.duration,
                          static_cast<unsigned long long>(placed_before)));
        break;
      }
      case FaultKind::kControllerBrownout: {
        const bool was_browned_out = plane.browned_out();
        end = plane.arm(event, index);
        if (!was_browned_out) {
          log.append(now, "brownout", "update channel browned out");
        }
        // Provisioning keeps arriving during the brownout: a small wave of
        // onboardings whose pushes get refused, feeding the breaker (or
        // piling onto the retry queue when none is configured).
        const std::size_t admitted = onboard(std::max(4u, event.count));
        record.detected_at = now;
        // The control plane rides the retry queue until the brownout lifts
        // — the deferral itself is the reroute.
        record.rerouted_at = now;
        log.append(now, "brownout",
                   format("%zu vpcs admitted into the brownout, %zu table "
                          "ops deferred",
                          admitted, controller.deferred_op_count()));
        break;
      }
    }
  }

  // ---- phase 2: probes, restores and the control-plane clock, logged -----
  void observe(double now) {
    const FaultPlane::Observation seen = plane.observe(now);
    for (const FaultPlane::Transition& tr : seen.transitions) {
      log.append(now, "recovery",
                 format("cluster %zu device %zu marked %s", tr.cluster,
                        tr.device, tr.failed ? "failed" : "recovered"));
      for (std::size_t i = 0; i < report.faults.size(); ++i) {
        FaultRecord& record = report.faults[i];
        if (!in_flight(i, now) || record.event.cluster != tr.cluster ||
            record.event.device != tr.device) {
          continue;
        }
        if (tr.failed) {
          if (record.detected_at < 0) record.detected_at = tr.time;
          if (record.rerouted_at < 0) record.rerouted_at = tr.time;
          if (is_port_fault(record.event.kind)) record.escalated = true;
        } else if (is_device_fault(record.event.kind) && now < ends[i]) {
          // The slot came back while the schedule still holds the device
          // down: a cold standby took over (the plane has already cut the
          // remaining down windows).
          record.replaced = true;
          record.recovered_at = tr.time;
        }
      }
    }
    if (seen.channel_restored) {
      log.append(now, "channel", "update channel restored");
    }
    if (seen.brownout_cleared) {
      log.append(now, "brownout", "update channel brownout cleared");
    }
    if (seen.replayed > 0) {
      log.append(now, "retry",
                 format("replayed %zu deferred table ops, %zu pending",
                        seen.replayed, controller.deferred_op_count()));
    }
    if (report.breaker_tracked) {
      const guard::CircuitBreaker::Stats& bs = breaker->stats();
      for (auto n = breaker_prev.trips; n < bs.trips; ++n) {
        report.breaker_transitions.emplace_back(now, "open");
        log.append(now, "breaker", "tripped open");
      }
      for (auto n = breaker_prev.reopens; n < bs.reopens; ++n) {
        report.breaker_transitions.emplace_back(now, "reopen");
        log.append(now, "breaker", "half-open probe refused; re-opened");
      }
      for (auto n = breaker_prev.closes; n < bs.closes; ++n) {
        report.breaker_transitions.emplace_back(now, "close");
        log.append(now, "breaker", "half-open probe succeeded; closed");
      }
      breaker_prev = bs;
    }
    for (const std::size_t node : seen.dpu_nodes_restored) {
      log.append(now, "dpu-failure", format("node %zu restored", node));
    }
  }

  // ---- phase 3: fault lifecycle updates (level-triggered) ----------------
  void update_faults(double now) {
    const cluster::HealthMonitor& monitor = plane.monitor();
    const cluster::DisasterRecovery& recovery = region.disaster_recovery();
    for (std::size_t i = 0; i < report.faults.size(); ++i) {
      if (!in_flight(i, now)) continue;
      FaultRecord& record = report.faults[i];
      const double end = ends[i];
      const std::size_t ec = record.event.cluster;
      const std::size_t ed = record.event.device;
      switch (record.event.kind) {
        case FaultKind::kDeviceCrash:
        case FaultKind::kDeviceFlap:
          if (now + kTimeEpsilon >= end &&
              !monitor.device_considered_failed(ec, ed) &&
              controller.cluster(ec).device_health(ed) ==
                  cluster::DeviceHealth::kHealthy) {
            // Either fully recovered, or so brief the debounce never acted
            // — both count as converged.
            recover(i, record.detected_at < 0 ? end : now, now,
                    format("cluster %zu device %zu converged", ec, ed));
          }
          break;
        case FaultKind::kPortErrorBurst:
        case FaultKind::kLinkLoss: {
          const FaultPlane::PortState ports = plane.port_state(i);
          if (record.detected_at < 0 && ports.isolated) {
            record.detected_at = now;
          }
          if (record.rerouted_at < 0 &&
              (recovery.device_capacity_fraction(ec, ed) < 1.0 ||
               monitor.device_considered_failed(ec, ed))) {
            record.rerouted_at = now;
          }
          if (!ports.tracked && !monitor.device_considered_failed(ec, ed) &&
              recovery.isolated_port_count(ec, ed) == 0) {
            recover(i, now, now,
                    format("cluster %zu device %zu ports clean", ec, ed));
          }
          break;
        }
        case FaultKind::kChannelOutage:
        case FaultKind::kUpdateStorm:
        case FaultKind::kChurnStorm: {
          const bool outage_over =
              record.event.kind != FaultKind::kChannelOutage ||
              !plane.channel_down();
          if (outage_over && controller.deferred_op_count() == 0) {
            recover(i, now, now, "control plane drained");
          }
          break;
        }
        case FaultKind::kControllerBrownout: {
          // Recovered once the brownout window has lifted, the breaker (if
          // any) has closed again, and the parked wave has drained.
          const bool closed =
              breaker == nullptr ||
              breaker->state(now) == guard::CircuitBreaker::State::kClosed;
          if (!plane.browned_out() && now + kTimeEpsilon >= end && closed &&
              controller.deferred_op_count() == 0) {
            recover(i, now, now,
                    "brownout cleared; breaker closed and queue drained");
          }
          break;
        }
        case FaultKind::kMidUpgradeFailure:
          break;
        case FaultKind::kTenantStorm: {
          // Done when the flood is over AND the guard has walked the
          // tenant back down the ladder to full service.
          if (now + kTimeEpsilon < end) break;
          const guard::TenantGuard* guard = region.tenant_guard();
          net::Vni vni = 0;
          for (const StormWindow& storm : plane.storms()) {
            if (storm.owner == i) vni = storm.vni;
          }
          if (guard == nullptr || guard->tier_of(vni) == guard::Tier::kFull) {
            recover(i, now, now,
                    format("storm tenant %u back to full service",
                           static_cast<unsigned>(vni)));
          }
          break;
        }
        case FaultKind::kDpuFailure: {
          // In flight only if armed, so the region has a DPU tier.
          const std::size_t node = ed % region.dpu_node_count();
          const double restored_at = plane.dpu_dark_until(node);
          if (now + kTimeEpsilon < restored_at) break;  // still dark
          // Recovered once the placer has re-promoted elephants after the
          // node's last dark window — the interval samples show the tier
          // serving again. Without interval sampling there is nothing to
          // watch; the restore itself is the recovery.
          if (!sampling ||
              (last_dpu_sample_at > restored_at - kTimeEpsilon &&
               last_dpu_pps > 0)) {
            recover(i, now, now, format("dpu node %zu serving again", node));
          }
          break;
        }
      }
    }
  }

  // ---- phase 4: probe traffic through the functional path ----------------
  void send_probes(double now) {
    const std::span<const workload::Flow> flows = injector.flows_;
    for (std::size_t f = 0; f < std::min(kProbeFlows, flows.size()); ++f) {
      const workload::Flow& flow = flows[f];
      ++report.probes_sent;
      const auto cluster_id = controller.cluster_for(flow.vni);
      if (cluster_id.has_value()) {
        const cluster::XgwHCluster& c = controller.cluster(*cluster_id);
        const auto device = c.pick_device(flow.tuple);
        std::size_t owner = 0;
        if (device.has_value() &&
            c.device_health(*device) == cluster::DeviceHealth::kHealthy &&
            plane.slot_down(*cluster_id, *device, now, &owner)) {
          // ECMP still steers into a device the schedule has killed but
          // the monitor has not yet failed: the packet blackholes.
          ++report.faults[owner].blackholed;
          ++report.probe_drops;
          continue;
        }
      }
      net::OverlayPacket pkt;
      pkt.vni = flow.vni;
      pkt.inner = flow.tuple;
      pkt.payload_size = 96;
      const dataplane::Verdict verdict = region.process(pkt, now);
      if (verdict.dropped()) ++report.probe_drops;
    }
  }

  // ---- phase 5: interval-simulator sample (fig19-under-failure series) ---
  void sample_interval(std::uint64_t tick, double now) {
    const std::span<const workload::Flow> flows = injector.flows_;
    const double interval_bps = injector.config_.interval_bps;
    // While a tenant storm rages, the flood rides on top of the base
    // population: the base keeps its absolute offered rate and each storm
    // adds `multiplier` x interval_bps of Zipf-skewed flows.
    double storm_total = 0;
    for (const StormWindow& storm : plane.storms()) {
      if (storm.active(now)) storm_total += storm.multiplier;
    }
    core::SailfishRegion::IntervalReport interval;
    if (storm_total > 0) {
      std::vector<workload::Flow> blended(flows.begin(), flows.end());
      const double scale = 1.0 / (1.0 + storm_total);
      for (workload::Flow& flow : blended) flow.weight *= scale;
      for (const StormWindow& storm : plane.storms()) {
        if (!storm.active(now)) continue;
        append_storm_flows(blended, storm.vni,
                           report.faults[storm.owner].event.count,
                           storm.multiplier * scale, kStormZipfExponent);
      }
      interval = region.simulate_interval(
          blended, interval_bps * (1.0 + storm_total), tick);
    } else {
      interval = region.simulate_interval(flows, interval_bps, tick);
    }
    report.drop_rate_series.emplace_back(now, interval.drop_rate);
    report.peak_drop_rate = std::max(report.peak_drop_rate, interval.drop_rate);
    last_dpu_pps = interval.dpu_pps;
    last_dpu_sample_at = now;
    if (has_dpu_events && region.dpu_node_count() > 0) {
      report.dpu_samples.push_back(ChaosReport::DpuSample{
          now, interval.dpu_pps, interval.overflow_x86_pps,
          interval.punt_queue_occupancy, interval.p99_latency_us,
          interval.dpu_flow_entries});
    }

    // Storm isolation samples: the storm tenant's ladder tier and the drop
    // rate over everyone else (guard sheds excluded — they hit only the
    // storm tenant).
    double all_storm_offered_pps = 0;
    for (const auto& tenant : interval.guard_tenants) {
      all_storm_offered_pps += tenant.offered_pps;
    }
    for (const StormWindow& storm : plane.storms()) {
      if (!storm.active(now)) continue;
      ChaosReport::StormSample sample;
      sample.time = now;
      sample.vni = storm.vni;
      for (const auto& tenant : interval.guard_tenants) {
        if (tenant.vni != storm.vni) continue;
        sample.tier = static_cast<int>(tenant.tier);
        sample.storm_offered_pps = tenant.offered_pps;
        sample.storm_shed_pps = tenant.shed_pps;
      }
      const double victim_pps = interval.offered_pps - all_storm_offered_pps;
      const double victim_dropped =
          interval.dropped_pps - interval.guard_shed_pps;
      sample.victim_drop_rate =
          victim_pps > 0 ? std::max(victim_dropped, 0.0) / victim_pps : 0;
      if (report.faults[storm.owner].rerouted_at < 0 && sample.tier > 0) {
        // "Rerouted" for a storm: the guard moved the tenant off full
        // service.
        report.faults[storm.owner].rerouted_at = now;
      }
      report.peak_victim_drop_rate =
          std::max(report.peak_victim_drop_rate, sample.victim_drop_rate);
      report.storm_samples.push_back(sample);
    }
  }

  // ---- phase 6: termination ----------------------------------------------
  bool finished(double now) {
    // A fault recovers only once fired, so this also waits for the rest
    // of the schedule.
    bool all_done = true;
    for (const FaultRecord& record : report.faults) {
      all_done = all_done && record.recovered_at >= 0;
    }
    if (all_done && !plane.control_faults_active()) {
      log.append(now, "converged", "all faults recovered");
      return true;
    }
    if (now + kTimeEpsilon >= deadline) {
      log.append(now, "deadline", "settle window exhausted");
      return true;
    }
    return false;
  }

  // ---- after the last tick: leak audit and aggregates --------------------
  ChaosReport finish() {
    report.events_applied = plane.events_fired();
    // Nothing may survive a fully recovered schedule.
    report.leaks = plane.final_audit(deadline);
    if (report.breaker_tracked) {
      const guard::CircuitBreaker::Stats& bs = breaker->stats();
      report.breaker_trips = bs.trips - breaker_base.trips;
      report.breaker_reopens = bs.reopens - breaker_base.reopens;
      report.breaker_closes = bs.closes - breaker_base.closes;
      report.breaker_short_circuited =
          bs.short_circuited - breaker_base.short_circuited;
    }
    for (const std::string& leak : report.leaks) {
      log.append(deadline, "leak", leak);
    }

    // Mean and max of one latency over the faults that have it.
    const auto aggregate = [&](double (FaultRecord::*latency)() const,
                               double& mean, double& max) {
      std::size_t measured = 0;
      for (const FaultRecord& record : report.faults) {
        const double t = (record.*latency)();
        if (t < 0) continue;
        ++measured;
        mean += t;
        max = std::max(max, t);
      }
      if (measured > 0) mean /= static_cast<double>(measured);
    };
    aggregate(&FaultRecord::time_to_detect, report.mean_time_to_detect,
              report.max_time_to_detect);
    aggregate(&FaultRecord::time_to_reroute, report.mean_time_to_reroute,
              report.max_time_to_reroute);
    return std::move(report);
  }
};

ChaosInjector::ChaosInjector(core::SailfishRegion& region,
                             std::span<const workload::Flow> flows,
                             Config config)
    : region_(region), flows_(flows), config_(config) {}

ChaosReport ChaosInjector::run(const ChaosSchedule& schedule) {
  log_.clear();
  Run run(*this, schedule);
  for (std::uint64_t tick = 0;; ++tick) {
    const double now = static_cast<double>(tick) * kProbeIntervalS;
    run.fire_due(now);
    run.observe(now);
    run.update_faults(now);
    run.send_probes(now);
    if (run.sampling && tick % kIntervalEvery == 0) {
      run.sample_interval(tick, now);
    }
    if (run.finished(now)) break;
  }
  return run.finish();
}

std::string ChaosReport::to_json() const {
  std::string out = "{\n";
  out += format("  \"schedule_seed\": %llu,\n",
                static_cast<unsigned long long>(schedule_seed));
  out += format("  \"events_applied\": %zu,\n", events_applied);
  out += format("  \"converged\": %s,\n", leaks.empty() ? "true" : "false");
  out += format("  \"mean_time_to_detect_s\": %.3f,\n", mean_time_to_detect);
  out += format("  \"max_time_to_detect_s\": %.3f,\n", max_time_to_detect);
  out += format("  \"mean_time_to_reroute_s\": %.3f,\n", mean_time_to_reroute);
  out += format("  \"max_time_to_reroute_s\": %.3f,\n", max_time_to_reroute);
  out += format("  \"probes_sent\": %llu,\n",
                static_cast<unsigned long long>(probes_sent));
  out += format("  \"probe_drops\": %llu,\n",
                static_cast<unsigned long long>(probe_drops));
  out += format("  \"peak_drop_rate\": %.9e,\n", peak_drop_rate);
  out += "  \"faults\": [\n";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultRecord& record = faults[i];
    out += "    {\"event\": \"" + record.event.to_string() + "\", ";
    out += format("\"detect_s\": %.3f, ", record.time_to_detect());
    out += format("\"reroute_s\": %.3f, ", record.time_to_reroute());
    out += format("\"recovered_at\": %.3f, ", record.recovered_at);
    out += format("\"blackholed\": %llu, ",
                  static_cast<unsigned long long>(record.blackholed));
    out += format("\"replaced\": %s, ", record.replaced ? "true" : "false");
    out += format("\"escalated\": %s}", record.escalated ? "true" : "false");
    out += i + 1 < faults.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"drop_rate_series\": [\n";
  for (std::size_t i = 0; i < drop_rate_series.size(); ++i) {
    out += format("    [%.3f, %.9e]", drop_rate_series[i].first,
                  drop_rate_series[i].second);
    out += i + 1 < drop_rate_series.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  // Present only for schedules with tenant storms, so every pre-storm
  // report renders byte-identically.
  if (!storm_samples.empty()) {
    out += format("  \"peak_victim_drop_rate\": %.9e,\n",
                  peak_victim_drop_rate);
    out += "  \"tenant_storms\": [\n";
    for (std::size_t i = 0; i < storm_samples.size(); ++i) {
      const StormSample& sample = storm_samples[i];
      out += format("    {\"t\": %.3f, \"vni\": %u, \"tier\": %d, "
                    "\"offered_pps\": %.3e, \"shed_pps\": %.3e, "
                    "\"victim_drop_rate\": %.9e}",
                    sample.time, static_cast<unsigned>(sample.vni),
                    sample.tier, sample.storm_offered_pps,
                    sample.storm_shed_pps, sample.victim_drop_rate);
      out += i + 1 < storm_samples.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
  }
  // Present only when a brownout schedule ran against a breaker-equipped
  // controller, so every pre-brownout report renders byte-identically.
  if (breaker_tracked) {
    out += format("  \"breaker\": {\"trips\": %llu, \"reopens\": %llu, "
                  "\"closes\": %llu, \"short_circuited\": %llu},\n",
                  static_cast<unsigned long long>(breaker_trips),
                  static_cast<unsigned long long>(breaker_reopens),
                  static_cast<unsigned long long>(breaker_closes),
                  static_cast<unsigned long long>(breaker_short_circuited));
    out += "  \"breaker_transitions\": [\n";
    for (std::size_t i = 0; i < breaker_transitions.size(); ++i) {
      out += format("    [%.3f, \"%s\"]", breaker_transitions[i].first,
                    breaker_transitions[i].second.c_str());
      out += i + 1 < breaker_transitions.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
  }
  // Present only for schedules with DPU faults, so every DPU-less report
  // renders byte-identically.
  if (!dpu_samples.empty()) {
    out += "  \"dpu_samples\": [\n";
    for (std::size_t i = 0; i < dpu_samples.size(); ++i) {
      const DpuSample& sample = dpu_samples[i];
      out += format("    {\"t\": %.3f, \"dpu_pps\": %.3e, "
                    "\"overflow_x86_pps\": %.3e, "
                    "\"punt_queue_occupancy\": %.6f, "
                    "\"p99_latency_us\": %.3f, \"dpu_flow_entries\": %llu}",
                    sample.time, sample.dpu_pps, sample.overflow_x86_pps,
                    sample.punt_queue_occupancy, sample.p99_latency_us,
                    static_cast<unsigned long long>(sample.dpu_flow_entries));
      out += i + 1 < dpu_samples.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
  }
  out += "  \"leaks\": [";
  for (std::size_t i = 0; i < leaks.size(); ++i) {
    out += "\"" + leaks[i] + "\"";
    if (i + 1 < leaks.size()) out += ", ";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace sf::chaos

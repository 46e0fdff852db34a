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

// Storm tenants take /24s out of 10.0/9 and NCs out of 172.16/16.
constexpr std::uint32_t kStormBlock = 0x0a000000u;
constexpr std::uint32_t kStormNcBase = 0xac100000u;

workload::VpcRecord storm_vpc(net::Vni vni, unsigned ordinal) {
  return synthetic_vpc(vni, ordinal, kStormBlock, kStormNcBase);
}

/// Appends a storm tenant's flood to a flow population: `flow_count`
/// Zipf-skewed flows whose weights sum to `weight_total`, addressed
/// between the storm VPC's two VMs so every packet resolves through the
/// tables storm provisioning installed.
void append_storm_flows(std::vector<workload::Flow>& out, net::Vni vni,
                        unsigned ordinal, unsigned flow_count,
                        double weight_total, double zipf_exponent) {
  const std::uint32_t base = kStormBlock | ((ordinal & 0xffffu) << 8);
  double norm = 0;
  for (unsigned k = 0; k < flow_count; ++k) {
    norm += 1.0 / std::pow(static_cast<double>(k + 1), zipf_exponent);
  }
  for (unsigned k = 0; k < flow_count; ++k) {
    workload::Flow flow;
    flow.vni = vni;
    flow.scope = tables::RouteScope::kLocal;
    flow.dst_nc = net::Ipv4Addr(kStormNcBase + ordinal);
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

struct ChaosInjector::ActiveFault {
  bool done = false;
  /// Injection keeps running until this instant (down windows, report
  /// bursts); recovery is then verified against the live machinery.
  double end = 0;
};

ChaosInjector::ChaosInjector(core::SailfishRegion& region,
                             std::span<const workload::Flow> flows,
                             Config config)
    : region_(region), flows_(flows), config_(config) {}

ChaosReport ChaosInjector::run(const ChaosSchedule& schedule) {
  log_.clear();
  ChaosReport report;
  report.schedule_seed = schedule.seed();

  cluster::Controller& controller = region_.controller();
  const cluster::DisasterRecovery& recovery = region_.disaster_recovery();
  FaultPlane plane(region_, cluster::HealthMonitor::Config{},
                   kProbeIntervalS);
  const cluster::HealthMonitor& monitor = plane.monitor();

  const auto& events = schedule.events();
  std::vector<ActiveFault> faults;
  faults.reserve(events.size());
  report.faults.reserve(events.size());
  bool has_brownout_events = false;
  bool has_dpu_events = false;
  for (const ChaosEvent& event : events) {
    report.faults.push_back(FaultRecord{event});
    faults.push_back(ActiveFault{});
    has_brownout_events =
        has_brownout_events || event.kind == FaultKind::kControllerBrownout;
    has_dpu_events = has_dpu_events || event.kind == FaultKind::kDpuFailure;
  }

  // Brownout transitions are observed by diffing the breaker's stats tick
  // over tick.
  const guard::CircuitBreaker* breaker = controller.breaker();
  report.breaker_tracked = has_brownout_events && breaker != nullptr;
  guard::CircuitBreaker::Stats breaker_base{};
  if (breaker != nullptr) breaker_base = breaker->stats();
  guard::CircuitBreaker::Stats breaker_prev = breaker_base;

  // Tenant storms armed this run (the flood blends into interval samples
  // while the owning fault's [time, end) covers the tick).
  struct Storm {
    std::size_t fault = 0;  // owning FaultRecord index
    net::Vni vni = 0;
    unsigned ordinal = 0;
    unsigned flow_count = 0;
    double magnitude = 0;  // offered rate as a multiple of interval_bps
  };
  std::vector<Storm> storms;
  const auto storm_active = [&](const Storm& storm, double now) {
    return report.faults[storm.fault].event.time <= now + kTimeEpsilon &&
           now < faults[storm.fault].end - kTimeEpsilon;
  };

  // DPU node each armed kDpuFailure took dark (by FaultRecord index), and
  // the last interval sample's DPU-served rate: recovery is the placer
  // re-promoting elephants onto the node after the plane restores it.
  std::map<std::size_t, std::size_t> dpu_nodes;
  double last_dpu_pps = 0;
  double last_dpu_sample_at = -1;

  // Provisions `count` storm tenants through the update channel.
  const auto onboard = [&](unsigned count) {
    std::size_t admitted = 0;
    for (unsigned v = 0; v < count; ++v) {
      const unsigned ordinal = storm_vni_next_++;
      if (controller.add_vpc(storm_vpc(kStormVniBase + ordinal, ordinal))) {
        ++admitted;
      }
    }
    return admitted;
  };

  // Retires fault `i` as recovered at `at`, with the log line saying why.
  const auto recover = [&](std::size_t i, double at, double now,
                           const std::string& why) {
    report.faults[i].recovered_at = at;
    faults[i].done = true;
    log_.append(now, "recover", why);
  };
  // Retires fault `i` at injection: detected and recovered on the spot.
  const auto retire = [&](std::size_t i, double now) {
    report.faults[i].detected_at = now;
    report.faults[i].recovered_at = now;
    faults[i].done = true;
  };

  const bool sampling = config_.interval_bps > 0;
  const double deadline = schedule.horizon() + config_.settle_s;
  std::size_t next_event = 0;
  const std::size_t probe_count = std::min(kProbeFlows, flows_.size());

  for (std::uint64_t tick = 0;; ++tick) {
    const double now = static_cast<double>(tick) * kProbeIntervalS;

    // ---- 1. fire schedule events due at this tick -------------------------
    while (next_event < events.size() &&
           events[next_event].time <= now + kTimeEpsilon) {
      const std::size_t index = next_event++;
      const ChaosEvent& event = events[index];
      ActiveFault& fault = faults[index];
      FaultRecord& record = report.faults[index];
      log_.append(now, "inject", event.to_string());
      switch (event.kind) {
        case FaultKind::kDeviceCrash:
        case FaultKind::kDeviceFlap:
        case FaultKind::kPortErrorBurst:
        case FaultKind::kLinkLoss:
          fault.end = plane.arm(event, index);
          break;
        case FaultKind::kChannelOutage: {
          const bool was_down = plane.channel_down();
          fault.end = plane.arm(event, index);
          if (!was_down) log_.append(now, "channel", "update channel down");
          record.detected_at = now;
          break;
        }
        case FaultKind::kUpdateStorm: {
          const std::size_t admitted = onboard(event.count);
          record.detected_at = now;
          log_.append(now, "storm",
                      format("%zu vpcs admitted, %zu table ops deferred",
                             admitted, controller.deferred_op_count()));
          break;
        }
        case FaultKind::kMidUpgradeFailure: {
          cluster::XgwHCluster& c = controller.cluster(event.cluster);
          const std::size_t fail_at =
              event.device % c.config().primary_devices;
          std::size_t invocation = 0;
          cluster::RollingUpgrade roll;
          const cluster::RollingUpgrade::Result result = roll.run(
              c,
              [&](xgwh::XgwH&) { return invocation++ != fail_at; },
              [&](const cluster::XgwHCluster& cc) {
                return !cc.failed_over();
              });
          retire(index, now);
          record.rerouted_at = now;
          log_.append(now, "upgrade",
                      result.completed
                          ? "roll completed"
                          : "roll aborted: " + result.abort_reason);
          break;
        }
        case FaultKind::kTenantStorm: {
          const unsigned ordinal = storm_vni_next_++;
          const net::Vni vni = kStormVniBase + static_cast<net::Vni>(ordinal);
          controller.add_vpc(storm_vpc(vni, ordinal));
          guard::TenantGuard* guard = region_.tenant_guard();
          if (guard == nullptr || !sampling) {
            // Without a guard (or interval sampling to meter against)
            // there is nothing to degrade or verify — retire immediately.
            retire(index, now);
            log_.append(now, "tenant-storm",
                        "skipped: region has no guard or interval sampling");
            break;
          }
          const double limit_bps = kStormLimitFraction * config_.interval_bps;
          guard->set_limit(guard::TenantLimit{vni, limit_bps, 0.0});
          fault.end = event.time + event.duration;
          storms.push_back(
              Storm{index, vni, ordinal, event.count, event.error_rate});
          record.detected_at = now;
          log_.append(now, "tenant-storm",
                      format("vni %u armed: limit %.3e bps, flood %.1fx "
                             "region rate over %u flows for %.1fs",
                             static_cast<unsigned>(vni), limit_bps,
                             event.error_rate, event.count, event.duration));
          break;
        }
        case FaultKind::kChurnStorm: {
          // Tenant-onboarding wave: a burst of new VPCs through the
          // update channel (each is several route/mapping table ops)...
          const unsigned first_ordinal = storm_vni_next_;
          const std::size_t admitted = onboard(event.count);
          // ...then a VM-migration wave: the freshly onboarded tenants
          // immediately re-place onto other clusters, churning both the
          // source and target cluster tables mid-run.
          std::size_t migrated = 0;
          if (controller.cluster_count() > 1) {
            for (unsigned v = 0; v < event.count; ++v) {
              const net::Vni vni =
                  kStormVniBase + static_cast<net::Vni>(first_ordinal + v);
              const std::uint32_t target = static_cast<std::uint32_t>(
                  (event.cluster + 1 + v) % controller.cluster_count());
              if (controller.migrate_vpc(vni, target)) ++migrated;
            }
          }
          record.detected_at = now;
          log_.append(now, "churn-storm",
                      format("%zu vpcs onboarded, %zu migrated, %zu table "
                             "ops deferred",
                             admitted, migrated,
                             controller.deferred_op_count()));
          break;
        }
        case FaultKind::kDpuFailure: {
          if (region_.dpu_node_count() == 0) {
            // No DPU tier in this region — nothing to fail or verify.
            retire(index, now);
            log_.append(now, "dpu-failure",
                        "skipped: region has no DPU tier");
            break;
          }
          const std::size_t node = event.device % region_.dpu_node_count();
          const std::uint64_t placed_before =
              region_.dpu_node(node).flow_count();
          fault.end = plane.arm(event, index);
          dpu_nodes[index] = node;
          // The failure is injected below the health plane: the region
          // fails the node over synchronously (placement misses fall back
          // to x86), so detect and reroute coincide with injection.
          record.detected_at = now;
          record.rerouted_at = now;
          log_.append(now, "dpu-failure",
                      format("node %zu dark for %.1fs, %llu placed flows "
                             "failing over to x86",
                             node, event.duration,
                             static_cast<unsigned long long>(placed_before)));
          break;
        }
        case FaultKind::kControllerBrownout: {
          const bool was_browned_out = plane.browned_out();
          fault.end = plane.arm(event, index);
          if (!was_browned_out) {
            log_.append(now, "brownout", "update channel browned out");
          }
          // Provisioning keeps arriving during the brownout: a small wave
          // of onboardings whose pushes get refused, feeding the breaker
          // (or piling onto the retry queue when none is configured).
          const std::size_t admitted = onboard(std::max(4u, event.count));
          record.detected_at = now;
          // The control plane rides the retry queue until the brownout
          // lifts — the deferral itself is the reroute.
          record.rerouted_at = now;
          log_.append(now, "brownout",
                      format("%zu vpcs admitted into the brownout, %zu "
                             "table ops deferred",
                             admitted, controller.deferred_op_count()));
          break;
        }
      }
    }

    // ---- 2-3. heartbeat and port error probes -----------------------------
    plane.deliver_heartbeats(now);
    plane.deliver_port_reports(now);

    // ---- 4. recovery transitions observed this tick -----------------------
    for (const FaultPlane::Transition& tr : plane.transitions()) {
      log_.append(now, "recovery",
                  format("cluster %zu device %zu marked %s", tr.cluster,
                         tr.device, tr.failed ? "failed" : "recovered"));
      for (std::size_t i = 0; i < faults.size(); ++i) {
        ActiveFault& fault = faults[i];
        FaultRecord& record = report.faults[i];
        if (fault.done || record.event.time > now + kTimeEpsilon) continue;
        if (record.event.cluster != tr.cluster ||
            record.event.device != tr.device) {
          continue;
        }
        if (tr.failed) {
          if (record.detected_at < 0) record.detected_at = tr.time;
          if (record.rerouted_at < 0) record.rerouted_at = tr.time;
          if (is_port_fault(record.event.kind)) record.escalated = true;
        } else if (is_device_fault(record.event.kind) && now < fault.end) {
          // The slot came back while the schedule still holds the device
          // down: a cold standby took over (the plane has already cut the
          // remaining down windows).
          record.replaced = true;
          record.recovered_at = tr.time;
          fault.done = true;
        }
      }
    }

    // ---- 5. control-plane clock: lift expired windows, drain pushes -------
    const FaultPlane::Restored restored = plane.restore_expired(now);
    if (restored.channel) {
      log_.append(now, "channel", "update channel restored");
    }
    if (restored.brownout) {
      log_.append(now, "brownout", "update channel brownout cleared");
    }
    const std::size_t replayed = controller.advance_clock(now);
    if (replayed > 0) {
      log_.append(now, "retry",
                  format("replayed %zu deferred table ops, %zu pending",
                         replayed, controller.deferred_op_count()));
    }
    if (report.breaker_tracked) {
      const guard::CircuitBreaker::Stats& bs = breaker->stats();
      for (auto n = breaker_prev.trips; n < bs.trips; ++n) {
        report.breaker_transitions.emplace_back(now, "open");
        log_.append(now, "breaker", "tripped open");
      }
      for (auto n = breaker_prev.reopens; n < bs.reopens; ++n) {
        report.breaker_transitions.emplace_back(now, "reopen");
        log_.append(now, "breaker", "half-open probe refused; re-opened");
      }
      for (auto n = breaker_prev.closes; n < bs.closes; ++n) {
        report.breaker_transitions.emplace_back(now, "close");
        log_.append(now, "breaker", "half-open probe succeeded; closed");
      }
      breaker_prev = bs;
    }
    for (const std::size_t node : restored.dpu_nodes) {
      log_.append(now, "dpu-failure", format("node %zu restored", node));
    }

    // ---- 6. fault lifecycle updates (level-triggered) ---------------------
    for (std::size_t i = 0; i < faults.size(); ++i) {
      ActiveFault& fault = faults[i];
      FaultRecord& record = report.faults[i];
      if (fault.done || record.event.time > now + kTimeEpsilon) continue;
      const std::size_t ec = record.event.cluster;
      const std::size_t ed = record.event.device;
      switch (record.event.kind) {
        case FaultKind::kDeviceCrash:
        case FaultKind::kDeviceFlap: {
          if (now + kTimeEpsilon >= fault.end &&
              !monitor.device_considered_failed(ec, ed) &&
              controller.cluster(ec).device_health(ed) ==
                  cluster::DeviceHealth::kHealthy) {
            // Either fully recovered, or so brief the debounce never
            // acted — both count as converged.
            recover(i, record.detected_at < 0 ? fault.end : now, now,
                    format("cluster %zu device %zu converged", ec, ed));
          }
          break;
        }
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
          if (!plane.browned_out() && now + kTimeEpsilon >= fault.end &&
              closed && controller.deferred_op_count() == 0) {
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
          if (now + kTimeEpsilon < fault.end) break;
          const guard::TenantGuard* guard = region_.tenant_guard();
          net::Vni vni = 0;
          for (const Storm& storm : storms) {
            if (storm.fault == i) vni = storm.vni;
          }
          if (guard == nullptr ||
              guard->tier_of(vni) == guard::Tier::kFull) {
            recover(i, now, now,
                    format("storm tenant %u back to full service",
                           static_cast<unsigned>(vni)));
          }
          break;
        }
        case FaultKind::kDpuFailure: {
          const auto armed = dpu_nodes.find(i);
          if (armed == dpu_nodes.end()) break;  // skipped at injection
          const std::size_t node = armed->second;
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

    // ---- 7. probe traffic through the functional path ---------------------
    for (std::size_t f = 0; f < probe_count; ++f) {
      const workload::Flow& flow = flows_[f];
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
      const dataplane::Verdict verdict = region_.process(pkt, now);
      if (verdict.dropped()) ++report.probe_drops;
    }

    // ---- 8. interval-simulator sample (the fig19-under-failure series) ----
    if (sampling && tick % kIntervalEvery == 0) {
      // While a tenant storm rages, the flood rides on top of the base
      // population: the base keeps its absolute offered rate and each
      // storm adds `magnitude` x interval_bps of Zipf-skewed flows.
      double storm_total = 0;
      for (const Storm& storm : storms) {
        if (storm_active(storm, now)) storm_total += storm.magnitude;
      }
      core::SailfishRegion::IntervalReport interval;
      if (storm_total > 0) {
        std::vector<workload::Flow> blended(flows_.begin(), flows_.end());
        const double scale = 1.0 / (1.0 + storm_total);
        for (workload::Flow& flow : blended) flow.weight *= scale;
        for (const Storm& storm : storms) {
          if (!storm_active(storm, now)) continue;
          append_storm_flows(blended, storm.vni, storm.ordinal,
                             storm.flow_count, storm.magnitude * scale,
                             kStormZipfExponent);
        }
        interval = region_.simulate_interval(
            blended, config_.interval_bps * (1.0 + storm_total), tick);
      } else {
        interval =
            region_.simulate_interval(flows_, config_.interval_bps, tick);
      }
      report.drop_rate_series.emplace_back(now, interval.drop_rate);
      report.peak_drop_rate =
          std::max(report.peak_drop_rate, interval.drop_rate);
      last_dpu_pps = interval.dpu_pps;
      last_dpu_sample_at = now;
      if (has_dpu_events && region_.dpu_node_count() > 0) {
        report.dpu_samples.push_back(ChaosReport::DpuSample{
            now, interval.dpu_pps, interval.overflow_x86_pps,
            interval.punt_queue_occupancy, interval.p99_latency_us,
            interval.dpu_flow_entries});
      }

      // Storm isolation samples: the storm tenant's ladder tier and the
      // drop rate over everyone else (guard sheds excluded — they hit
      // only the storm tenant).
      double all_storm_offered_pps = 0;
      for (const auto& tenant : interval.guard_tenants) {
        all_storm_offered_pps += tenant.offered_pps;
      }
      for (const Storm& storm : storms) {
        if (!storm_active(storm, now)) continue;
        ChaosReport::StormSample sample;
        sample.time = now;
        sample.vni = storm.vni;
        for (const auto& tenant : interval.guard_tenants) {
          if (tenant.vni != storm.vni) continue;
          sample.tier = static_cast<int>(tenant.tier);
          sample.storm_offered_pps = tenant.offered_pps;
          sample.storm_shed_pps = tenant.shed_pps;
        }
        const double victim_pps =
            interval.offered_pps - all_storm_offered_pps;
        const double victim_dropped =
            interval.dropped_pps - interval.guard_shed_pps;
        sample.victim_drop_rate =
            victim_pps > 0 ? std::max(victim_dropped, 0.0) / victim_pps : 0;
        if (report.faults[storm.fault].rerouted_at < 0 && sample.tier > 0) {
          // "Rerouted" for a storm: the guard moved the tenant off full
          // service.
          report.faults[storm.fault].rerouted_at = now;
        }
        report.peak_victim_drop_rate =
            std::max(report.peak_victim_drop_rate, sample.victim_drop_rate);
        report.storm_samples.push_back(sample);
      }
    }


    // ---- 9. termination ---------------------------------------------------
    bool all_done = next_event == events.size();
    for (const ActiveFault& fault : faults) {
      all_done = all_done && fault.done;
    }
    if (all_done && !plane.channel_down() &&
        controller.deferred_op_count() == 0) {
      log_.append(now, "converged", "all faults recovered");
      break;
    }
    if (now + kTimeEpsilon >= deadline) {
      log_.append(now, "deadline", "settle window exhausted");
      break;
    }
  }

  report.events_applied = next_event;

  // ---- leak audit: nothing may survive a fully recovered schedule --------
  std::vector<net::Vni> storm_vnis;
  for (const Storm& storm : storms) storm_vnis.push_back(storm.vni);
  report.leaks = FaultPlane::audit(region_, deadline, &monitor, storm_vnis);
  if (report.breaker_tracked) {
    const guard::CircuitBreaker::Stats& bs = breaker->stats();
    report.breaker_trips = bs.trips - breaker_base.trips;
    report.breaker_reopens = bs.reopens - breaker_base.reopens;
    report.breaker_closes = bs.closes - breaker_base.closes;
    report.breaker_short_circuited =
        bs.short_circuited - breaker_base.short_circuited;
  }
  for (const std::string& leak : report.leaks) {
    log_.append(deadline, "leak", leak);
  }


  // ---- aggregates --------------------------------------------------------
  std::size_t detected = 0;
  std::size_t rerouted = 0;
  for (const FaultRecord& record : report.faults) {
    if (record.time_to_detect() >= 0) {
      ++detected;
      report.mean_time_to_detect += record.time_to_detect();
      report.max_time_to_detect =
          std::max(report.max_time_to_detect, record.time_to_detect());
    }
    if (record.time_to_reroute() >= 0) {
      ++rerouted;
      report.mean_time_to_reroute += record.time_to_reroute();
      report.max_time_to_reroute =
          std::max(report.max_time_to_reroute, record.time_to_reroute());
    }
  }
  if (detected > 0) {
    report.mean_time_to_detect /= static_cast<double>(detected);
  }
  if (rerouted > 0) {
    report.mean_time_to_reroute /= static_cast<double>(rerouted);
  }

  return report;
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

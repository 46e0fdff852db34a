#include "chaos/fault_plane.hpp"

#include <algorithm>
#include <iterator>

#include "guard/guard.hpp"
#include "sim/table_printer.hpp"

namespace sf::chaos {

using sim::format;

namespace {

std::uint64_t slot_key(std::size_t cluster, std::size_t device) {
  return (static_cast<std::uint64_t>(cluster) << 32) | device;
}

workload::VpcRecord synthetic_vpc(const SyntheticBlock& where,
                                  unsigned ordinal) {
  workload::VpcRecord vpc;
  vpc.vni = where.vni_base + static_cast<net::Vni>(ordinal);
  const std::uint32_t base = where.block | ((ordinal & 0xffffu) << 8);
  workload::RouteRecord route;
  route.prefix = net::Ipv4Prefix(net::Ipv4Addr(base), 24);
  route.action =
      tables::VxlanRouteAction{tables::RouteScope::kLocal, 0, net::Ipv4Addr()};
  vpc.routes.push_back(route);
  for (std::uint32_t vm_index = 0; vm_index < 2; ++vm_index) {
    workload::VmRecord vm;
    vm.ip = net::IpAddr(net::Ipv4Addr(base + 1 + vm_index));
    vm.nc_ip = net::Ipv4Addr(where.nc_base + ordinal);
    vpc.vms.push_back(vm);
  }
  return vpc;
}

}  // namespace

std::size_t onboard_wave(cluster::Controller& controller,
                         const SyntheticBlock& where, unsigned count,
                         unsigned& next_ordinal) {
  std::size_t admitted = 0;
  for (unsigned v = 0; v < count; ++v) {
    if (controller.add_vpc(synthetic_vpc(where, next_ordinal++))) ++admitted;
  }
  return admitted;
}

/// Records every recovery-initiated device transition, then forwards it to
/// the monitor. A slot that serves again (recovery debounce or a cold
/// standby) is fresh hardware: its remaining down-windows are cut at once
/// so its heartbeats arrive clean.
struct FaultPlane::Tap : cluster::RecoveryListener {
  FaultPlane* plane = nullptr;

  void on_device_marked_failed(std::size_t cluster, std::size_t device,
                               double now) override {
    plane->transitions_.push_back({cluster, device, true, now});
    plane->monitor_.on_device_marked_failed(cluster, device, now);
  }
  void on_device_marked_recovered(std::size_t cluster, std::size_t device,
                                  double now) override {
    plane->transitions_.push_back({cluster, device, false, now});
    auto it = plane->windows_.find(slot_key(cluster, device));
    if (it != plane->windows_.end()) {
      for (FaultWindow& w : it->second) w.end = std::min(w.end, now);
    }
    plane->monitor_.on_device_marked_recovered(cluster, device, now);
  }
};

FaultPlane::FaultPlane(core::SailfishRegion& region,
                       cluster::HealthMonitor::Config health, double tick_s,
                       const ChaosSchedule& schedule)
    : region_(region),
      health_(health),
      tick_s_(tick_s),
      schedule_(schedule),
      monitor_(&region.disaster_recovery(), health),
      tap_(std::make_unique<Tap>()) {
  // The monitor registered itself as recovery's listener; the tap takes
  // the slot and forwards.
  tap_->plane = this;
  region_.disaster_recovery().set_listener(tap_.get());
}

FaultPlane::~FaultPlane() {
  region_.disaster_recovery().set_listener(nullptr);
}

std::optional<std::size_t> FaultPlane::next_due(double now) {
  const auto& events = schedule_.events();
  if (next_event_ == events.size() ||
      events[next_event_].time > now + kTimeEpsilon) {
    return std::nullopt;
  }
  return next_event_++;
}

double FaultPlane::arm(const ChaosEvent& event, std::size_t owner) {
  cluster::Controller& controller = region_.controller();
  const double end = event.time + event.duration;
  switch (event.kind) {
    case FaultKind::kDeviceCrash:
      windows_[slot_key(event.cluster, event.device)].push_back(
          FaultWindow{event.time, end, owner});
      return end;
    case FaultKind::kDeviceFlap: {
      auto& slot = windows_[slot_key(event.cluster, event.device)];
      for (unsigned cycle = 0; cycle < event.count; ++cycle) {
        const double start = event.time + 2.0 * cycle * event.duration;
        slot.push_back(FaultWindow{start, start + event.duration, owner});
      }
      return event.time + 2.0 * event.count * event.duration;
    }
    case FaultKind::kPortErrorBurst:
    case FaultKind::kLinkLoss: {
      // A burst hits one named port; link loss takes out the first `count`
      // ports together (a cut trunk) with enough bad reports to cross the
      // isolation threshold.
      const bool burst_fault = event.kind == FaultKind::kPortErrorBurst;
      const unsigned reports =
          burst_fault ? event.count : health_.isolate_port_after + 1;
      const unsigned first = burst_fault ? event.port : 0;
      const unsigned span = burst_fault ? 1 : event.count;
      for (unsigned p = first; p < first + span; ++p) {
        PortTrack& track =
            tracks_[(slot_key(event.cluster, event.device) << 12) | p];
        track.cluster = event.cluster;
        track.device = event.device;
        track.port = p;
        track.bad_remaining += reports;
        track.error_rate = event.error_rate;
        track.owners.push_back(owner);
      }
      return event.time + reports * tick_s_;
    }
    case FaultKind::kChannelOutage:
      if (!channel_.held) controller.set_update_channel_up(false);
      channel_.hold(end);
      return end;
    case FaultKind::kControllerBrownout:
      // The channel stays nominally up but refuses every attempt.
      if (!brownout_.held) controller.set_update_channel_degraded(true);
      brownout_.hold(end);
      return end;
    case FaultKind::kDpuFailure: {
      if (region_.dpu_node_count() == 0) return event.time;
      const std::size_t node = event.device % region_.dpu_node_count();
      region_.set_dpu_failed(node, true);
      dpu_dark_[node].hold(end);
      return end;
    }
    case FaultKind::kUpdateStorm:
    case FaultKind::kMidUpgradeFailure:
    case FaultKind::kTenantStorm:
    case FaultKind::kChurnStorm:
      break;
  }
  return event.time;
}

const StormWindow& FaultPlane::arm_storm(const ChaosEvent& event,
                                         std::size_t owner, net::Vni vni) {
  return storms_.emplace_back(StormWindow{
      {event.time, event.time + event.duration, owner}, vni, event.error_rate});
}

FaultPlane::Observation FaultPlane::observe(double now) {
  Observation seen;
  cluster::Controller& controller = region_.controller();
  transitions_.clear();
  // Heartbeats in cluster-major order: missed while a window is active.
  for (std::size_t c = 0; c < controller.cluster_count(); ++c) {
    const std::size_t devices = controller.cluster(c).device_count();
    for (std::size_t d = 0; d < devices; ++d) {
      monitor_.report_heartbeat(c, d, !slot_down(c, d, now), now);
    }
  }
  // Port error reports in sorted port-key order. Clean reports continue
  // until the monitor lets the port back in, then the track retires.
  for (auto it = tracks_.begin(); it != tracks_.end();) {
    PortTrack& track = it->second;
    if (track.bad_remaining > 0) {
      --track.bad_remaining;
      monitor_.report_port_errors(track.cluster, track.device, track.port,
                                  track.error_rate, now);
      ++it;
      continue;
    }
    monitor_.report_port_errors(track.cluster, track.device, track.port, 0.0,
                                now);
    it = monitor_.port_considered_isolated(track.cluster, track.device,
                                           track.port)
             ? std::next(it)
             : tracks_.erase(it);
  }
  // Only the transitions the probes caused: anything recorded from here to
  // the next observe() is cleared unseen.
  seen.transitions.swap(transitions_);

  // Level-triggered restores: the channel outage, the brownout and every
  // DPU dark window whose latest end has passed.
  if (channel_.release(now)) {
    controller.set_update_channel_up(true);
    seen.channel_restored = true;
  }
  if (brownout_.release(now)) {
    controller.set_update_channel_degraded(false);
    seen.brownout_cleared = true;
  }
  for (auto& [node, dark] : dpu_dark_) {
    if (dark.release(now)) {
      region_.set_dpu_failed(node, false);
      seen.dpu_nodes_restored.push_back(node);
    }
  }
  seen.replayed = controller.advance_clock(now);
  return seen;
}

bool FaultPlane::slot_down(std::size_t cluster, std::size_t device,
                           double now, std::size_t* owner) const {
  auto it = windows_.find(slot_key(cluster, device));
  if (it == windows_.end()) return false;
  for (const FaultWindow& w : it->second) {
    if (w.active(now)) {
      if (owner != nullptr) *owner = w.owner;
      return true;
    }
  }
  return false;
}

FaultPlane::PortState FaultPlane::port_state(std::size_t owner) const {
  PortState state;
  for (const auto& [key, track] : tracks_) {
    if (std::ranges::find(track.owners, owner) == track.owners.end()) continue;
    state.tracked = true;
    state.isolated = state.isolated ||
                     monitor_.port_considered_isolated(
                         track.cluster, track.device, track.port);
  }
  return state;
}

double FaultPlane::dpu_dark_until(std::size_t node) const {
  auto it = dpu_dark_.find(node);
  return it == dpu_dark_.end() ? -1 : it->second.until;
}

bool FaultPlane::device_faults_active(double now) const {
  if (!tracks_.empty()) return true;
  for (const auto& [key, slot_windows] : windows_) {
    for (const FaultWindow& w : slot_windows) {
      if (now < w.end - kTimeEpsilon) return true;
    }
  }
  for (const auto& [node, dark] : dpu_dark_) {
    if (dark.held) return true;
  }
  const cluster::Controller& controller = region_.controller();
  for (std::size_t c = 0; c < controller.cluster_count(); ++c) {
    const cluster::XgwHCluster& cl = controller.cluster(c);
    for (std::size_t d = 0; d < cl.device_count(); ++d) {
      if (cl.device_health(d) != cluster::DeviceHealth::kHealthy ||
          monitor_.device_considered_failed(c, d)) {
        return true;
      }
    }
  }
  return false;
}

std::vector<std::string> FaultPlane::audit(
    const core::SailfishRegion& region, double now,
    const cluster::HealthMonitor* monitor,
    std::span<const net::Vni> storm_vnis) {
  const cluster::Controller& controller = region.controller();
  const cluster::DisasterRecovery& recovery = region.disaster_recovery();
  std::vector<std::string> leaks;
  const std::size_t deferred = controller.deferred_op_count();
  if (deferred != 0) {
    leaks.push_back(format("%zu table ops still deferred", deferred));
  }
  if (!controller.update_channel_up()) {
    leaks.push_back("update channel left down");
  }
  if (controller.update_channel_degraded()) {
    leaks.push_back("update channel left degraded");
  }
  if (const guard::CircuitBreaker* breaker = controller.breaker();
      breaker != nullptr &&
      breaker->state(now) != guard::CircuitBreaker::State::kClosed) {
    leaks.push_back("update-channel breaker left open");
  }
  for (std::size_t c = 0; c < controller.cluster_count(); ++c) {
    const cluster::XgwHCluster& cl = controller.cluster(c);
    if (cl.failed_over()) {
      leaks.push_back(format("cluster %zu still failed over to backups", c));
    }
    for (std::size_t d = 0; d < cl.device_count(); ++d) {
      if (cl.device_health(d) != cluster::DeviceHealth::kHealthy) {
        leaks.push_back(
            format("cluster %zu device %zu still out of ECMP", c, d));
      }
      if (monitor != nullptr && monitor->device_considered_failed(c, d)) {
        leaks.push_back(format(
            "cluster %zu device %zu still failed in monitor", c, d));
      }
      if (recovery.isolated_port_count(c, d) != 0) {
        leaks.push_back(format(
            "cluster %zu device %zu has %u ports still isolated", c, d,
            recovery.isolated_port_count(c, d)));
      }
    }
    // Parked ops would all read as missing; the deferral is reported above.
    if (deferred == 0) {
      const std::size_t missing =
          controller.check_consistency(c).missing_on_device;
      if (missing != 0) {
        leaks.push_back(format(
            "cluster %zu missing %zu entries on device", c, missing));
      }
    }
  }
  if (!recovery.quiescent()) {
    leaks.push_back("disaster recovery holds stale isolated-port state");
  }
  for (std::size_t n = 0; n < region.dpu_node_count(); ++n) {
    if (region.dpu_node(n).failed()) {
      leaks.push_back(format("dpu node %zu left failed", n));
    }
  }
  if (const guard::TenantGuard* guard = region.tenant_guard()) {
    for (const net::Vni vni : storm_vnis) {
      if (guard->tier_of(vni) != guard::Tier::kFull) {
        leaks.push_back(format("storm tenant %u still degraded to %s",
                               static_cast<unsigned>(vni),
                               guard::name(guard->tier_of(vni))));
      }
    }
  }
  return leaks;
}

std::vector<std::string> FaultPlane::final_audit(double now) const {
  std::vector<net::Vni> storm_vnis;
  for (const StormWindow& storm : storms_) storm_vnis.push_back(storm.vni);
  std::vector<std::string> leaks = audit(region_, now, &monitor_, storm_vnis);
  if (next_event_ != schedule_.size()) {
    leaks.insert(leaks.begin(), format("%zu scheduled events never fired",
                                       schedule_.size() - next_event_));
  }
  return leaks;
}

}  // namespace sf::chaos

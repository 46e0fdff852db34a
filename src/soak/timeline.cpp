#include "soak/timeline.hpp"

#include <algorithm>

#include "sim/table_printer.hpp"
#include "workload/rng.hpp"

namespace sf::soak {
namespace {

/// Health thresholds at interval granularity: a crash spanning two
/// boundaries is detected.
constexpr cluster::HealthMonitor::Config kHealth{
    /*fail_after_missed=*/2, /*recover_after_ok=*/1,
    /*port_error_rate_threshold=*/1e-6,
    /*isolate_port_after=*/2, /*recover_port_after_ok=*/2};

/// Base VNI for churn-onboarded synthetic tenants.
constexpr net::Vni kChurnVniBase = 0xB0A000;

// Churn tenants take /24s out of 10.128/9 and NCs out of 172.32/16.
constexpr std::uint32_t kChurnBlock = 0x0a800000u;
constexpr std::uint32_t kChurnNcBase = 0xac200000u;

}  // namespace

ChaosTimeline::ChaosTimeline(core::SailfishRegion& region, Config config)
    : region_(region),
      config_(std::move(config)),
      plane_(region, kHealth, config_.interval_s) {
  draw_schedule();
}

void ChaosTimeline::draw_schedule() {
  workload::Rng rng(config_.seed ^ 0x50a11f00d5eedULL);
  const double interval = config_.interval_s;
  const std::size_t intervals =
      static_cast<std::size_t>(config_.horizon_s / interval);
  const std::size_t events = static_cast<std::size_t>(
      config_.events_per_day * config_.horizon_s / 86400.0);

  const std::size_t clusters = region_.controller().cluster_count();
  const std::size_t devices =
      clusters > 0 ? region_.controller().cluster(0).device_count() : 0;
  const unsigned ports = region_.config().recovery.ports_per_device;

  // Faces in a fixed order; a storm without tenants or a DPU fault
  // without a DPU tier falls back to a device crash.
  for (std::size_t i = 0; i < events; ++i) {
    chaos::ChaosEvent event;
    // Leave the first few and last ~2% of intervals fault-free so the
    // run starts converged (warmup drains the install backlog) and has
    // room to settle before the final audit.
    const std::size_t lo = std::max<std::size_t>(3, intervals / 50);
    const std::size_t hi = intervals > 2 * lo ? intervals - lo : intervals;
    event.time =
        interval * static_cast<double>(lo + rng.uniform(hi - lo));
    event.cluster = rng.uniform(std::max<std::size_t>(1, clusters));
    event.device = rng.uniform(std::max<std::size_t>(1, devices));
    event.port = static_cast<unsigned>(rng.uniform(std::max(1u, ports)));

    switch (rng.uniform(8)) {
      case 0:
      default:
        event.kind = chaos::FaultKind::kDeviceCrash;
        event.duration = interval * (2.0 + static_cast<double>(
                                               rng.uniform(3)));
        break;
      case 1:
        event.kind = chaos::FaultKind::kPortErrorBurst;
        event.count = 3 + static_cast<unsigned>(rng.uniform(3));
        event.error_rate = 1e-4;
        break;
      case 2:
        event.kind = chaos::FaultKind::kLinkLoss;
        event.count = 2 + static_cast<unsigned>(
                              rng.uniform(std::max(1u, ports / 2)));
        event.error_rate = 1e-3;
        break;
      case 3:
        event.kind = chaos::FaultKind::kChannelOutage;
        event.duration = interval * (1.0 + static_cast<double>(
                                               rng.uniform(2)));
        break;
      case 4:
        event.kind = chaos::FaultKind::kControllerBrownout;
        event.duration = interval * (1.0 + static_cast<double>(
                                               rng.uniform(3)));
        event.count = 4 + static_cast<unsigned>(rng.uniform(8));
        break;
      case 5:
        if (config_.tenant_vnis.empty()) {
          event.kind = chaos::FaultKind::kDeviceCrash;
          event.duration = interval * 2.0;
          break;
        }
        event.kind = chaos::FaultKind::kTenantStorm;
        // device doubles as the tenant index; error_rate as the
        // multiplier (same overloading the injector uses).
        event.device = rng.uniform(config_.tenant_vnis.size());
        event.duration = interval * (3.0 + static_cast<double>(
                                               rng.uniform(5)));
        event.error_rate =
            kStormMultiplierMin +
            (kStormMultiplierMax - kStormMultiplierMin) * rng.uniform_real();
        break;
      case 6:
        event.kind = chaos::FaultKind::kChurnStorm;
        event.count = 6 + static_cast<unsigned>(rng.uniform(18));
        break;
      case 7:
        if (region_.dpu_node_count() == 0) {
          event.kind = chaos::FaultKind::kDeviceCrash;
          event.duration = interval * 2.0;
          break;
        }
        event.kind = chaos::FaultKind::kDpuFailure;
        event.device = rng.uniform(region_.dpu_node_count());
        event.duration = interval * (2.0 + static_cast<double>(
                                               rng.uniform(3)));
        break;
    }
    schedule_.add(event);
  }
}

void ChaosTimeline::retarget_wave(unsigned count) {
  if (config_.migratable_vms.empty()) return;
  const unsigned wave = vm_wave_next_++;
  for (unsigned v = 0; v < count; ++v) {
    const tables::VmNcKey& key =
        config_.migratable_vms[vm_cursor_++ % config_.migratable_vms.size()];
    dataplane::TableOp op;
    op.kind = dataplane::TableOp::Kind::kAddMapping;
    op.vni = key.vni;
    op.mapping_key = key;
    op.mapping_action = tables::VmNcAction{net::Ipv4Addr(
        172, static_cast<std::uint8_t>(24 + wave % 8),
        static_cast<std::uint8_t>(v),
        static_cast<std::uint8_t>(1 + vm_cursor_ % 250))};
    region_.controller().push_op(op);
  }
}

void ChaosTimeline::fire_event(const chaos::ChaosEvent& event,
                               std::size_t index) {
  plane_.arm(event, index);
  switch (event.kind) {
    case chaos::FaultKind::kControllerBrownout:
      // Provisioning keeps arriving into the brownout. The wave must be
      // hardware-tier work — software-tier onboarding never consumes the
      // update channel — so it re-targets live hardware mappings; every
      // attempt is refused, feeding the breaker trip / short-circuit path.
      retarget_wave(std::max(4u, event.count));
      break;
    case chaos::FaultKind::kTenantStorm: {
      const net::Vni vni =
          config_.tenant_vnis[event.device % config_.tenant_vnis.size()];
      storms_.push_back(Storm{vni, event.error_rate, event.time,
                              event.time + event.duration});
      break;
    }
    case chaos::FaultKind::kChurnStorm:
      // Onboarding wave: fresh tenants pushed through the rate-limited
      // channel (overflow-admitted once hardware is at its water levels;
      // the ops still mirror to x86 and exercise the retry queue).
      for (unsigned v = 0; v < event.count; ++v) {
        const unsigned ordinal = churn_ordinal_next_++;
        region_.controller().add_vpc(chaos::synthetic_vpc(
            kChurnVniBase + ordinal, ordinal, kChurnBlock, kChurnNcBase));
      }
      // VM-migration wave on *live* tenants: each re-target is a
      // hardware-table update that rides the RCU publish path, bumps
      // generations on the x86 mirrors, and feeds the placement engine.
      retarget_wave(event.count);
      break;
    default:
      // The plane owns every other drawn kind.
      break;
  }
}

ChaosTimeline::StepResult ChaosTimeline::step(double now) {
  cluster::Controller& controller = region_.controller();
  StepResult result;

  // 1. Fire events due at this boundary.
  const auto& events = schedule_.events();
  while (next_event_ < events.size() &&
         events[next_event_].time <= now + chaos::kTimeEpsilon) {
    fire_event(events[next_event_], next_event_);
    ++next_event_;
    ++result.events_fired;
  }

  // 1b. Provisioning keeps arriving through a brownout: a trickle of
  // hardware-tier re-targets every boundary. Once the breaker has
  // tripped, these are short-circuited straight onto the retry queue
  // without burning a channel attempt.
  if (plane_.browned_out()) retarget_wave(2);

  // 2-4. Probes, then level-triggered restores.
  plane_.deliver_heartbeats(now);
  plane_.deliver_port_reports(now);
  plane_.restore_expired(now);

  // 5. Drain the control plane.
  controller.advance_clock(now);

  // 6. Report what is active.
  for (const Storm& storm : storms_) {
    if (storm.start <= now + chaos::kTimeEpsilon &&
        now < storm.end - chaos::kTimeEpsilon) {
      result.active_storms.push_back(StormSpec{storm.vni, storm.multiplier});
    }
  }
  std::sort(result.active_storms.begin(), result.active_storms.end(),
            [](const StormSpec& a, const StormSpec& b) {
              return a.vni < b.vni;
            });
  result.device_faults_active = plane_.device_faults_active(now);
  result.deferred_ops = controller.deferred_op_count();
  result.control_faults_active = plane_.channel_down() ||
                                 plane_.browned_out() ||
                                 result.deferred_ops != 0;
  return result;
}

std::vector<std::string> ChaosTimeline::final_audit(double now) {
  std::vector<net::Vni> storm_vnis;
  for (const Storm& storm : storms_) storm_vnis.push_back(storm.vni);
  std::vector<std::string> leaks =
      chaos::FaultPlane::audit(region_, now, &plane_.monitor(), storm_vnis);
  if (next_event_ != schedule_.size()) {
    leaks.insert(leaks.begin(), sim::format("%zu scheduled events never fired",
                                            schedule_.size() - next_event_));
  }
  return leaks;
}

std::map<std::string, std::size_t> ChaosTimeline::event_counts() const {
  std::map<std::string, std::size_t> counts;
  for (const chaos::ChaosEvent& event : schedule_.events()) {
    ++counts[chaos::to_string(event.kind)];
  }
  return counts;
}

}  // namespace sf::soak

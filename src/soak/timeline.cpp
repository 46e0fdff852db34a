#include "soak/timeline.hpp"

#include <algorithm>
#include <optional>

#include "workload/rng.hpp"

namespace sf::soak {
namespace {

// Churn tenants take VNIs from 0xB0A000, /24s out of 10.128/9 and NCs out
// of 172.32/16.
constexpr chaos::SyntheticBlock kChurnTenants{0xB0A000, 0x0a800000u,
                                              0xac200000u};

/// The seeded schedule, with durations in whole intervals.
chaos::ChaosSchedule draw_schedule(const core::SailfishRegion& region,
                                   const ChaosTimeline::Config& config) {
  chaos::ChaosSchedule schedule;
  workload::Rng rng(config.seed ^ 0x50a11f00d5eedULL);
  const double interval = config.interval_s;
  const std::size_t intervals =
      static_cast<std::size_t>(config.horizon_s / interval);
  const std::size_t events = static_cast<std::size_t>(
      config.events_per_day * config.horizon_s / 86400.0);

  const std::size_t clusters = region.controller().cluster_count();
  const std::size_t devices =
      clusters > 0 ? region.controller().cluster(0).device_count() : 0;
  const unsigned ports = region.config().recovery.ports_per_device;

  // Faces in a fixed order; a storm without tenants or a DPU fault
  // without a DPU tier falls back to a device crash.
  for (std::size_t i = 0; i < events; ++i) {
    chaos::ChaosEvent event;
    // Leave the first few and last ~2% of intervals fault-free so the
    // run starts converged (warmup drains the install backlog) and has
    // room to settle before the final audit.
    const std::size_t lo = std::max<std::size_t>(3, intervals / 50);
    const std::size_t hi = intervals > 2 * lo ? intervals - lo : intervals;
    event.time = interval * static_cast<double>(lo + rng.uniform(hi - lo));
    event.cluster = rng.uniform(std::max<std::size_t>(1, clusters));
    event.device = rng.uniform(std::max<std::size_t>(1, devices));
    event.port = static_cast<unsigned>(rng.uniform(std::max(1u, ports)));

    switch (rng.uniform(8)) {
      case 0:
      default:
        event.kind = chaos::FaultKind::kDeviceCrash;
        event.duration = interval * (2.0 + static_cast<double>(rng.uniform(3)));
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
        event.duration = interval * (1.0 + static_cast<double>(rng.uniform(2)));
        break;
      case 4:
        event.kind = chaos::FaultKind::kControllerBrownout;
        event.duration = interval * (1.0 + static_cast<double>(rng.uniform(3)));
        event.count = 4 + static_cast<unsigned>(rng.uniform(8));
        break;
      case 5:
        if (config.tenant_vnis.empty()) {
          event.kind = chaos::FaultKind::kDeviceCrash;
          event.duration = interval * 2.0;
          break;
        }
        event.kind = chaos::FaultKind::kTenantStorm;
        // device doubles as the tenant index; error_rate as the
        // multiplier (same overloading the injector uses).
        event.device = rng.uniform(config.tenant_vnis.size());
        event.duration = interval * (3.0 + static_cast<double>(rng.uniform(5)));
        event.error_rate =
            ChaosTimeline::kStormMultiplierMin +
            (ChaosTimeline::kStormMultiplierMax -
             ChaosTimeline::kStormMultiplierMin) *
                rng.uniform_real();
        break;
      case 6:
        event.kind = chaos::FaultKind::kChurnStorm;
        event.count = 6 + static_cast<unsigned>(rng.uniform(18));
        break;
      case 7:
        if (region.dpu_node_count() == 0) {
          event.kind = chaos::FaultKind::kDeviceCrash;
          event.duration = interval * 2.0;
          break;
        }
        event.kind = chaos::FaultKind::kDpuFailure;
        event.device = rng.uniform(region.dpu_node_count());
        event.duration = interval * (2.0 + static_cast<double>(rng.uniform(3)));
        break;
    }
    schedule.add(event);
  }
  return schedule;
}

}  // namespace

ChaosTimeline::ChaosTimeline(core::SailfishRegion& region, Config config)
    : region_(region),
      config_(std::move(config)),
      schedule_(draw_schedule(region, config_)),
      plane_(region, config_.interval_s, schedule_) {}

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
    case chaos::FaultKind::kTenantStorm:
      plane_.arm_storm(
          event, index,
          config_.tenant_vnis[event.device % config_.tenant_vnis.size()]);
      break;
    case chaos::FaultKind::kChurnStorm:
      // Onboarding wave: fresh tenants pushed through the rate-limited
      // channel (overflow-admitted once hardware is at its water levels;
      // the ops still mirror to x86 and exercise the retry queue).
      chaos::onboard_wave(region_.controller(), kChurnTenants, event.count,
                          churn_ordinal_next_);
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
  StepResult result;

  // 1. Fire events due at this boundary.
  while (const std::optional<std::size_t> index = plane_.next_due(now)) {
    fire_event(schedule_.events()[*index], *index);
    ++result.events_fired;
  }

  // 1b. Provisioning keeps arriving through a brownout: a trickle of
  // hardware-tier re-targets every boundary. Once the breaker has
  // tripped, these are short-circuited straight onto the retry queue
  // without burning a channel attempt.
  if (plane_.browned_out()) retarget_wave(2);

  // 2. Probes, level-triggered restores, then the control plane drains.
  plane_.observe(now);

  // 3. Report what is active.
  for (const StormSpec& storm : plane_.storms()) {
    if (storm.active(now)) result.active_storms.push_back(storm);
  }
  std::sort(result.active_storms.begin(), result.active_storms.end(),
            [](const StormSpec& a, const StormSpec& b) {
              return a.vni < b.vni;
            });
  result.device_faults_active = plane_.device_faults_active(now);
  result.deferred_ops = region_.controller().deferred_op_count();
  result.control_faults_active = plane_.control_faults_active();
  return result;
}

std::map<std::string, std::size_t> ChaosTimeline::event_counts() const {
  std::map<std::string, std::size_t> counts;
  for (const chaos::ChaosEvent& event : schedule_.events()) {
    ++counts[chaos::to_string(event.kind)];
  }
  return counts;
}

}  // namespace sf::soak

#include "chaos/schedule.hpp"

#include <algorithm>

#include "sim/table_printer.hpp"
#include "workload/rng.hpp"

namespace sf::chaos {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceCrash:
      return "device-crash";
    case FaultKind::kDeviceFlap:
      return "device-flap";
    case FaultKind::kPortErrorBurst:
      return "port-error-burst";
    case FaultKind::kLinkLoss:
      return "link-loss";
    case FaultKind::kChannelOutage:
      return "channel-outage";
    case FaultKind::kUpdateStorm:
      return "update-storm";
    case FaultKind::kMidUpgradeFailure:
      return "mid-upgrade-failure";
    case FaultKind::kTenantStorm:
      return "tenant-storm";
    case FaultKind::kDpuFailure:
      return "dpu-failure";
    case FaultKind::kChurnStorm:
      return "churn-storm";
    case FaultKind::kControllerBrownout:
      return "controller-brownout";
  }
  return "?";
}

std::string ChaosEvent::to_string() const {
  return sim::format(
      "t=%.3f %s cluster=%zu device=%zu port=%u count=%u duration=%.3f "
      "error_rate=%.3e",
      time, chaos::to_string(kind).c_str(), cluster, device, port, count,
      duration, error_rate);
}

ChaosSchedule& ChaosSchedule::add(ChaosEvent event) {
  // Insertion keeps the vector time-sorted with stable tie order, so a
  // scripted schedule replays identically however its lines were written.
  auto it = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const ChaosEvent& a, const ChaosEvent& b) { return a.time < b.time; });
  events_.insert(it, event);
  return *this;
}

double ChaosSchedule::horizon() const {
  double horizon = 0;
  for (const ChaosEvent& event : events_) {
    double end = event.time;
    switch (event.kind) {
      case FaultKind::kDeviceCrash:
      case FaultKind::kChannelOutage:
      case FaultKind::kTenantStorm:
      case FaultKind::kDpuFailure:
      case FaultKind::kControllerBrownout:
        end += event.duration;
        break;
      case FaultKind::kDeviceFlap:
        end += 2.0 * event.duration * event.count;
        break;
      case FaultKind::kPortErrorBurst:
      case FaultKind::kLinkLoss:
        end += static_cast<double>(event.count);
        break;
      case FaultKind::kUpdateStorm:
      case FaultKind::kMidUpgradeFailure:
      case FaultKind::kChurnStorm:
        break;
    }
    horizon = std::max(horizon, end);
  }
  return horizon;
}

std::string ChaosSchedule::to_string() const {
  std::string out;
  for (const ChaosEvent& event : events_) {
    out += event.to_string();
    out += '\n';
  }
  return out;
}

ChaosSchedule ChaosSchedule::random(std::uint64_t seed,
                                    const RandomConfig& config) {
  ChaosSchedule schedule;
  schedule.seed_ = seed;
  workload::Rng rng(seed ^ 0xc4a05f00d5eedULL);

  for (std::size_t i = 0; i < config.events; ++i) {
    ChaosEvent event;
    // Quantize start times to 0.5 s so the injector's probe ticks always
    // observe the fault fronts in the same order.
    event.time =
        0.5 * static_cast<double>(
                  rng.uniform(static_cast<std::uint64_t>(
                                  config.horizon_s / 0.5) +
                              1));
    event.cluster = rng.uniform(config.clusters);
    event.device = rng.uniform(config.devices_per_cluster);
    event.port = static_cast<unsigned>(rng.uniform(config.ports_per_device));

    // Data-plane faults always; control-plane/upgrade/tenant/DPU/churn/
    // brownout faults when enabled. New faces are appended after all
    // existing ones (order: tenant, dpu, churn, brownout) so configs
    // without them draw byte-identical schedules from the same seed.
    constexpr std::uint64_t kNoFace = ~std::uint64_t{0};
    const std::uint64_t base_faces = 4 +
                                     (config.control_plane_faults ? 2 : 0) +
                                     (config.upgrade_faults ? 1 : 0);
    std::uint64_t next_face = base_faces;
    const std::uint64_t tenant_face =
        config.tenant_storms ? next_face++ : kNoFace;
    const std::uint64_t dpu_face = config.dpu_faults ? next_face++ : kNoFace;
    const std::uint64_t churn_face =
        config.churn_storms ? next_face++ : kNoFace;
    const std::uint64_t brownout_face =
        config.controller_brownouts ? next_face++ : kNoFace;
    const std::uint64_t face = rng.uniform(next_face);
    if (face == brownout_face) {
      event.kind = FaultKind::kControllerBrownout;
      event.duration = 3.0 + static_cast<double>(rng.uniform(6));
    } else if (face == churn_face) {
      event.kind = FaultKind::kChurnStorm;
      event.count = 8 + static_cast<unsigned>(rng.uniform(24));
    } else if (face == dpu_face) {
      event.kind = FaultKind::kDpuFailure;
      event.duration = 3.0 + static_cast<double>(rng.uniform(6));
    } else if (face == tenant_face) {
      event.kind = FaultKind::kTenantStorm;
      event.count = 16 + static_cast<unsigned>(rng.uniform(16));
      event.duration = 3.0 + static_cast<double>(rng.uniform(5));
      // error_rate doubles as the storm magnitude: the tenant offers this
      // multiple of the region's nominal interval rate.
      event.error_rate = 2.0 + static_cast<double>(rng.uniform(4));
    } else if (face == 0) {
      event.kind = FaultKind::kDeviceCrash;
      event.duration = 2.0 + static_cast<double>(rng.uniform(8));
    } else if (face == 1) {
      event.kind = FaultKind::kDeviceFlap;
      event.count = 2 + static_cast<unsigned>(rng.uniform(4));
      event.duration = 1.0;  // half-period: one probe tick
    } else if (face == 2) {
      event.kind = FaultKind::kPortErrorBurst;
      event.count = 2 + static_cast<unsigned>(rng.uniform(6));
      event.error_rate = 1e-4;
    } else if (face == 3) {
      event.kind = FaultKind::kLinkLoss;
      // A few ports go dark together (a cut trunk), occasionally the whole
      // device — which must escalate to node-level failure.
      event.count = rng.chance(0.2)
                        ? config.ports_per_device
                        : 2 + static_cast<unsigned>(rng.uniform(
                                  config.ports_per_device / 2));
      event.error_rate = 1e-3;
    } else if (face == 4) {
      event.kind = FaultKind::kChannelOutage;
      event.duration = 2.0 + static_cast<double>(rng.uniform(6));
    } else if (face == 5) {
      event.kind = FaultKind::kUpdateStorm;
      event.count = 8 + static_cast<unsigned>(rng.uniform(24));
    } else {
      event.kind = FaultKind::kMidUpgradeFailure;
    }
    schedule.add(event);
  }
  return schedule;
}

}  // namespace sf::chaos

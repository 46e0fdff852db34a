#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::cluster {

XgwHCluster::XgwHCluster(Config config)
    : config_(config), ecmp_(config.max_ecmp_next_hops) {
  if (config_.primary_devices == 0) {
    throw std::invalid_argument("a cluster needs at least one primary");
  }
  const std::size_t total =
      config_.primary_devices + config_.backup_devices;
  devices_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Device device;
    xgwh::XgwH::Config cfg = config_.device;
    // Give each device a distinct underlay address.
    cfg.device_ip = net::Ipv4Addr(config_.device.device_ip.value() +
                                  static_cast<std::uint32_t>(i));
    device.gateway = std::make_unique<xgwh::XgwH>(cfg);
    device.role = i < config_.primary_devices ? DeviceRole::kPrimary
                                              : DeviceRole::kBackup;
    devices_.push_back(std::move(device));
  }
  rebuild_ecmp();
}

dataplane::BatchResult XgwHCluster::apply(
    const dataplane::TableOpBatch& batch) {
  dataplane::BatchResult result;
  bool first = true;
  for (Device& device : devices_) {
    dataplane::BatchResult device_result = device.gateway->apply(batch);
    if (first) result = std::move(device_result);
    first = false;
  }
  if (first) {
    // No devices: report per-op success so desired state still advances.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      result.record(dataplane::TableOpStatus::kOk);
    }
  }
  return result;
}

std::size_t XgwHCluster::route_count() const {
  return devices_.empty() ? 0 : devices_.front().gateway->route_count();
}

std::size_t XgwHCluster::mapping_count() const {
  return devices_.empty() ? 0 : devices_.front().gateway->mapping_count();
}

xgwh::ForwardResult XgwHCluster::forward(const net::OverlayPacket& packet,
                                         double now) {
  const std::optional<std::size_t> index = pick_device(packet.inner);
  if (!index) {
    xgwh::ForwardResult result;
    result.action = dataplane::Action::kDrop;
    result.drop_reason = dataplane::DropReason::kNoLiveDevice;
    result.packet = packet;
    return result;
  }
  return devices_[*index].gateway->forward(packet, now);
}

std::optional<std::size_t> XgwHCluster::pick_device(
    const net::FiveTuple& tuple) const {
  auto member = ecmp_.pick(tuple);
  if (!member) return std::nullopt;
  return static_cast<std::size_t>(*member);
}

void XgwHCluster::rebuild_ecmp() {
  // Serve from primaries while any is healthy; otherwise fail over to the
  // backup set (§6.1: backup clusters are hot standby).
  ecmp_ = EcmpGroup(config_.max_ecmp_next_hops);
  bool any_primary = false;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].role == DeviceRole::kPrimary &&
        devices_[i].health == DeviceHealth::kHealthy) {
      any_primary = true;
    }
  }
  failed_over_ = !any_primary;
  const DeviceRole serving =
      failed_over_ ? DeviceRole::kBackup : DeviceRole::kPrimary;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].role == serving &&
        devices_[i].health == DeviceHealth::kHealthy) {
      ecmp_.add(static_cast<std::uint32_t>(i));
    }
  }
}

void XgwHCluster::fail_device(std::size_t index) {
  devices_.at(index).health = DeviceHealth::kFailed;
  rebuild_ecmp();
  invalidate_fast_paths();
}

void XgwHCluster::recover_device(std::size_t index) {
  devices_.at(index).health = DeviceHealth::kHealthy;
  rebuild_ecmp();
  invalidate_fast_paths();
}

void XgwHCluster::invalidate_fast_paths() {
  // A health transition re-steers flows across devices (and DR standby
  // swaps reuse a device object for a different slot), so every member's
  // cached verdicts must lazily expire — the next packet of each flow
  // re-walks against the device's current tables.
  for (Device& device : devices_) {
    if (device.gateway) device.gateway->invalidate_fast_path();
  }
}

double XgwHCluster::sram_water_level() const {
  double worst = 0;
  for (const Device& device : devices_) {
    if (device.health != DeviceHealth::kHealthy) continue;
    worst = std::max(worst,
                     device.gateway->occupancy_report().sram_path_worst);
    break;  // devices are identical; one sample suffices
  }
  return worst;
}

}  // namespace sf::cluster

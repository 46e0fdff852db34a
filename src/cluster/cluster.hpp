// An XGW-H cluster: N identical hardware gateways sharing traffic behind
// one ECMP group, with a 1:1 hot-standby backup set (§6.1 "Disaster
// recovery"). Every device holds the same tables; installs fan out to all
// devices, primaries and backups alike, so failover needs no table
// download.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "xgwh/xgwh.hpp"

namespace sf::cluster {

enum class DeviceRole : std::uint8_t { kPrimary, kBackup };
enum class DeviceHealth : std::uint8_t { kHealthy, kFailed, kDraining };

class XgwHCluster : public dataplane::Gateway,
                    public dataplane::TableProgrammer {
 public:
  struct Config {
    std::uint32_t cluster_id = 0;
    std::size_t primary_devices = 4;
    std::size_t backup_devices = 4;  // 1:1 backup by default
    unsigned max_ecmp_next_hops = 64;
    xgwh::XgwH::Config device;
  };

  explicit XgwHCluster(Config config);

  // ---- table fan-out (dataplane::TableProgrammer) -------------------------

  /// Installs fan out to every device (primaries and backups hold the same
  /// tables); the returned per-op statuses are the first device's — they
  /// are identical by construction, so one answer speaks for all.
  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override;

  std::size_t route_count() const;    // per device (identical by design)
  std::size_t mapping_count() const;

  // ---- data plane (dataplane::Gateway) --------------------------------------

  /// ECMP-picks a live primary (or backup after failover) and forwards.
  xgwh::ForwardResult forward(const net::OverlayPacket& packet,
                              double now = 0);

  /// Gateway interface: forward() sliced to the unified verdict.
  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now) override {
    return forward(packet, now);
  }

  /// The flow-hash ECMP pick over the live set: the one device choice that
  /// forward(), flow_established() and the region's path trace share.
  std::optional<std::size_t> pick_device(const net::FiveTuple& tuple) const;

  /// True when the device that would serve this packet holds its flow in
  /// the flow cache — the guard's tier-1 "established?" probe. Const and
  /// side-effect free (see XgwH::flow_established).
  bool flow_established(const net::OverlayPacket& packet) const {
    const std::optional<std::size_t> index = pick_device(packet.inner);
    if (!index) return false;
    return devices_[*index].gateway->flow_established(packet);
  }

  // ---- health / failover ----------------------------------------------------

  std::size_t device_count() const { return devices_.size(); }
  xgwh::XgwH& device(std::size_t index) { return *devices_[index].gateway; }
  const xgwh::XgwH& device(std::size_t index) const {
    return *devices_[index].gateway;
  }
  DeviceHealth device_health(std::size_t index) const {
    return devices_[index].health;
  }

  /// Marks a device failed and removes it from the ECMP set; when the
  /// last primary fails the cluster fails over to the backups.
  void fail_device(std::size_t index);
  void recover_device(std::size_t index);

  /// True when traffic is being served by the backup set.
  bool failed_over() const { return failed_over_; }
  std::size_t live_device_count() const { return ecmp_.size(); }

  /// Worst-pipeline occupancy across live devices (water-level input).
  double sram_water_level() const;

  std::uint32_t id() const { return config_.cluster_id; }
  const Config& config() const { return config_; }

 private:
  struct Device {
    std::unique_ptr<xgwh::XgwH> gateway;
    DeviceRole role = DeviceRole::kPrimary;
    DeviceHealth health = DeviceHealth::kHealthy;
  };

  void rebuild_ecmp();
  /// Bumps every member device's flow-cache epoch after a health
  /// transition / standby swap re-steers flows.
  void invalidate_fast_paths();

  Config config_;
  std::vector<Device> devices_;
  EcmpGroup ecmp_;
  bool failed_over_ = false;
};

}  // namespace sf::cluster

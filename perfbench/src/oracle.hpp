// Independent expected-output models the benchmark checks verdicts
// against. They are written from the workloads' install plans and op
// streams alone, with std::map state and nothing from the library beyond
// the `net` value types and the verdict/op structs being checked.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "net/ip.hpp"

namespace pb {

/// fwd_* install plan: tenant v (VNI kFwdVniBase + v) owns 10.0.0.0/16 and
/// hosts 10.0.1.(1+h); host h of tenant v lives on NC
/// 172.(16 + v/256).(v%256).(1+h).
constexpr std::uint32_t kFwdVniBase = 100;

inline sf::net::Ipv4Addr fwd_vm_ip(std::uint32_t host) {
  return sf::net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(1 + host));
}

inline sf::net::Ipv4Addr fwd_nc(std::uint32_t tenant, std::uint32_t host) {
  return sf::net::Ipv4Addr(static_cast<std::uint8_t>(172),
                           static_cast<std::uint8_t>(16 + (tenant >> 8)),
                           static_cast<std::uint8_t>(tenant & 255),
                           static_cast<std::uint8_t>(1 + host));
}

/// Where the XGW-H devices send packets whose VM-NC mapping they could not
/// hold (the benchmark configures it; the oracle expects it).
inline const sf::net::Ipv4Addr kFwdX86NextHop{10, 0, 0, 100};

/// The (tenant, host) of the plan a fwd_* packet addresses, or nullopt
/// when the packet is outside the plan.
inline std::optional<std::pair<std::uint32_t, std::uint32_t>> fwd_plan_key(
    std::uint32_t vni, const sf::net::IpAddr& dst, std::uint32_t tenants,
    std::uint32_t hosts) {
  if (vni < kFwdVniBase || vni >= kFwdVniBase + tenants || !dst.is_v4()) {
    return std::nullopt;
  }
  const std::uint32_t bits = dst.v4().value();
  if ((bits >> 8) != ((10u << 16) | 1u)) return std::nullopt;  // 10.0.1.x
  const std::uint32_t last = bits & 255;
  if (last == 0 || last > hosts) return std::nullopt;
  return std::pair{vni - kFwdVniBase, last - 1};
}

/// x86_churn state: the NC of every (tenant, host) mapping, advanced op by
/// op in stamped order.
class ChurnModel {
 public:
  ChurnModel(std::uint32_t tenants, std::uint32_t hosts) {
    for (std::uint32_t v = 0; v < tenants; ++v) {
      for (std::uint32_t h = 0; h < hosts; ++h) nc_[{v, h}] = initial_nc(v, h);
    }
  }

  static sf::net::Ipv4Addr initial_nc(std::uint32_t tenant,
                                      std::uint32_t host) {
    return sf::net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(tenant),
                             static_cast<std::uint8_t>(1 + host));
  }

  void migrate(std::uint32_t tenant, std::uint32_t host,
               sf::net::Ipv4Addr nc) {
    nc_[{tenant, host}] = nc;
  }

  sf::net::Ipv4Addr nc(std::uint32_t tenant, std::uint32_t host) const {
    return nc_.at({tenant, host});
  }

 private:
  std::map<std::pair<std::uint32_t, std::uint32_t>, sf::net::Ipv4Addr> nc_;
};

/// region_day desired state: every VM's NC keyed by (VNI, address), and
/// the VNI owning each address (addresses are region-unique in the
/// generated plan, which is what lets a peer flow name its target VPC).
class RegionModel {
 public:
  void set_vm(std::uint32_t vni, const sf::net::IpAddr& ip,
              sf::net::Ipv4Addr nc) {
    vm_nc_[{vni, ip}] = nc;
    owner_[ip] = vni;
  }
  void remove_vm(std::uint32_t vni, const sf::net::IpAddr& ip) {
    vm_nc_.erase({vni, ip});
    owner_.erase(ip);
  }

  std::optional<sf::net::Ipv4Addr> nc_of(const sf::net::IpAddr& ip) const {
    const auto owner = owner_.find(ip);
    if (owner == owner_.end()) return std::nullopt;
    const auto it = vm_nc_.find({owner->second, ip});
    if (it == vm_nc_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<std::pair<std::uint32_t, sf::net::IpAddr>, sf::net::Ipv4Addr>
      vm_nc_;
  std::map<sf::net::IpAddr, std::uint32_t> owner_;
};

}  // namespace pb

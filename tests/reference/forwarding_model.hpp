// Naive reference model of the XGW-H forwarding decision (DESIGN.md §§1-5,
// the paper's Fig. 2 walkthrough and Table 1 routes).
//
// It is written from the documented semantics alone: std::map state, a
// linear longest-prefix scan, and nothing from the library beyond the
// `net` value types. The gateway's tables, pipeline, path table and flow
// cache share no code with it, so a decision rule that every executor of
// the gateway gets wrong the same way still disagrees with this model.
//
// The semantics it encodes:
//   * a VNI above net::kMaxVni is dropped (invalid VNI);
//   * a deny rule matching the entry VNI and inner destination port drops
//     the packet (ACL deny);
//   * the route lookup is a longest-prefix match of the inner destination
//     within the current VNI; a Peer route continues the lookup in its
//     next-hop VNI, and a packet still on a Peer route after four lookups
//     is dropped (peer loop);
//   * no route, an Internet route, or a Local route whose resolved VNI has
//     no VM-NC mapping for the inner destination falls back to XGW-x86;
//   * an IDC or cross-region route tunnels to the route's remote endpoint;
//   * a Local route with a mapping forwards to the mapped NC.
// Every packet that leaves carries the device IP as its outer source.
// Dropped packets leave the packet untouched.
//
// Not modeled: the fallback rate limiter (callers configure it open) and
// VM-NC digest false positives (a 32-bit digest collision between two
// IPv6 addresses of one VNI is beyond reach at test scale).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "net/ip.hpp"
#include "net/packet.hpp"

namespace sf::reference {

enum class Scope : std::uint8_t {
  kLocal,
  kPeer,
  kIdc,
  kCrossRegion,
  kInternet,
};

struct Route {
  Scope scope = Scope::kLocal;
  net::Vni next_vni = 0;  // kPeer
  net::Ipv4Addr remote;   // kIdc, kCrossRegion
};

enum class Action : std::uint8_t {
  kDrop,
  kForwardToNc,
  kForwardTunnel,
  kFallbackToX86,
};

enum class Drop : std::uint8_t { kNone, kInvalidVni, kAclDeny, kPeerLoop };

struct Expected {
  Action action = Action::kDrop;
  Drop drop = Drop::kNone;
  net::IpAddr outer_src;
  net::IpAddr outer_dst;
};

class ForwardingModel {
 public:
  static constexpr int kMaxLookups = 4;

  ForwardingModel(net::Ipv4Addr device_ip, net::Ipv4Addr x86_next_hop)
      : device_ip_(device_ip), x86_next_hop_(x86_next_hop) {}

  /// Returns true when the (VNI, prefix) key was already present.
  bool set_route(net::Vni vni, const net::IpPrefix& prefix, Route route) {
    auto& table = routes_[vni];
    const bool existed = table.count(prefix) > 0;
    table[prefix] = route;
    return existed;
  }
  /// Returns true when the key was present.
  bool erase_route(net::Vni vni, const net::IpPrefix& prefix) {
    const auto it = routes_.find(vni);
    return it != routes_.end() && it->second.erase(prefix) > 0;
  }
  bool has_route(net::Vni vni, const net::IpPrefix& prefix) const {
    const auto it = routes_.find(vni);
    return it != routes_.end() && it->second.count(prefix) > 0;
  }

  bool set_mapping(net::Vni vni, const net::IpAddr& vm, net::Ipv4Addr nc) {
    const bool existed = mappings_.count({vni, vm}) > 0;
    mappings_[{vni, vm}] = nc;
    return existed;
  }
  bool erase_mapping(net::Vni vni, const net::IpAddr& vm) {
    return mappings_.erase({vni, vm}) > 0;
  }
  bool has_mapping(net::Vni vni, const net::IpAddr& vm) const {
    return mappings_.count({vni, vm}) > 0;
  }

  /// Denies traffic to `dst_port`, on `vni` only or on every VNI.
  void deny(std::optional<net::Vni> vni, std::uint16_t dst_port) {
    denies_.insert({vni, dst_port});
  }

  Expected forward(const net::OverlayPacket& packet) const {
    Expected out;
    out.outer_src = packet.outer_src_ip;
    out.outer_dst = packet.outer_dst_ip;
    if (packet.vni > net::kMaxVni) {
      out.drop = Drop::kInvalidVni;
      return out;
    }
    if (denies_.count({packet.vni, packet.inner.dst_port}) > 0 ||
        denies_.count({std::nullopt, packet.inner.dst_port}) > 0) {
      out.drop = Drop::kAclDeny;
      return out;
    }
    const auto leave = [&](Action action, net::Ipv4Addr dst) {
      out.action = action;
      out.outer_src = net::IpAddr(device_ip_);
      out.outer_dst = net::IpAddr(dst);
      return out;
    };
    net::Vni vni = packet.vni;
    for (int lookup = 0; lookup < kMaxLookups; ++lookup) {
      const std::optional<Route> route = longest_match(vni, packet.inner.dst);
      if (!route) return leave(Action::kFallbackToX86, x86_next_hop_);
      switch (route->scope) {
        case Scope::kPeer:
          vni = route->next_vni;
          continue;
        case Scope::kInternet:
          return leave(Action::kFallbackToX86, x86_next_hop_);
        case Scope::kIdc:
        case Scope::kCrossRegion:
          return leave(Action::kForwardTunnel, route->remote);
        case Scope::kLocal: {
          const auto nc = mappings_.find({vni, packet.inner.dst});
          if (nc == mappings_.end()) {
            return leave(Action::kFallbackToX86, x86_next_hop_);
          }
          return leave(Action::kForwardToNc, nc->second);
        }
      }
    }
    out.drop = Drop::kPeerLoop;
    return out;
  }

 private:
  std::optional<Route> longest_match(net::Vni vni,
                                     const net::IpAddr& dst) const {
    const auto table = routes_.find(vni);
    if (table == routes_.end()) return std::nullopt;
    std::optional<Route> best;
    int best_length = -1;
    for (const auto& [prefix, route] : table->second) {
      const int length = static_cast<int>(prefix.length());
      if (prefix.contains(dst) && length > best_length) {
        best = route;
        best_length = length;
      }
    }
    return best;
  }

  net::Ipv4Addr device_ip_;
  net::Ipv4Addr x86_next_hop_;
  std::map<net::Vni, std::map<net::IpPrefix, Route>> routes_;
  std::map<std::pair<net::Vni, net::IpAddr>, net::Ipv4Addr> mappings_;
  std::set<std::pair<std::optional<net::Vni>, std::uint16_t>> denies_;
};

}  // namespace sf::reference

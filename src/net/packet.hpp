// The overlay packet: the unit of work of the cloud gateway.
//
// OverlayPacket is the *logical* view — the fields the gateway's forwarding
// tables key on (outer IPs, VNI, inner 5-tuple). The simulators shuttle this
// struct around for speed; encode()/decode() produce and parse the real
// VXLAN-in-UDP wire format so the byte-level path is exercised by tests
// and examples.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/headers.hpp"
#include "net/ip.hpp"
#include "net/mac.hpp"

namespace sf::net {

/// A VXLAN network identifier: 24 bits, identifying one VPC (§2.1).
using Vni = std::uint32_t;

inline constexpr Vni kMaxVni = 0xffffff;

/// A VXLAN-encapsulated packet as the gateway sees it.
struct OverlayPacket {
  // Outer (underlay) headers.
  MacAddr outer_src_mac;
  MacAddr outer_dst_mac;
  IpAddr outer_src_ip;
  IpAddr outer_dst_ip;
  std::uint16_t outer_udp_src_port = 0;  // entropy field for underlay ECMP

  // VXLAN.
  Vni vni = 0;

  // Inner (overlay) headers.
  MacAddr inner_src_mac;
  MacAddr inner_dst_mac;
  FiveTuple inner;

  // Application payload length in bytes (payload content is immaterial to
  // the gateway; only the length matters for throughput accounting).
  std::uint16_t payload_size = 0;

  /// Total wire length in bytes, excluding the Ethernet FCS.
  std::size_t wire_size() const;
};

/// Serializes to VXLAN-in-UDP wire bytes. IPv4 header checksums are
/// computed; UDP checksum is left zero as VXLAN commonly does.
std::vector<std::uint8_t> encode(const OverlayPacket& pkt);

/// Parses wire bytes produced by encode() (or by any conformant VXLAN
/// encapsulator). Returns std::nullopt on malformed input, non-VXLAN UDP
/// ports, or truncated headers.
std::optional<OverlayPacket> decode(ConstByteSpan bytes);

}  // namespace sf::net

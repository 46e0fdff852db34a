// Ternary-match keys.
//
// A ternary row stores a (value, mask) pair; a search key matches a row
// when (key & mask) == (value & mask). TcamKey is that key, up to 192
// bits wide, and the pooled routing layout below packs (label ‖ VNI ‖
// address) into it. ALPM's directory (tables/alpm.hpp), MaskedKeyMap and
// RcuLpm all match on these keys.
//
// Physical TCAMs are built from fixed-width slices (44 bits on SfChip,
// asic/chip_config.hpp); a logical entry wider than one slice consumes
// several, which is exactly why the paper's IPv6 routes are so expensive
// (Table 2) and why ALPM moves route bulk into SRAM. The placer bills
// those slices by arithmetic (ChipConfig::tcam_slices_per_entry); no
// TCAM is simulated row by row.

#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "net/ip.hpp"
#include "net/packet.hpp"

namespace sf::tables {

/// A key of up to 192 bits, as three 64-bit words (word 0 holds the most
/// significant bits).
struct TcamKey {
  std::array<std::uint64_t, 3> w{};

  friend bool operator==(const TcamKey&, const TcamKey&) = default;

  TcamKey masked(const TcamKey& mask) const {
    return TcamKey{{w[0] & mask.w[0], w[1] & mask.w[1], w[2] & mask.w[2]}};
  }
};

/// Layout of the pooled routing key (label ‖ VNI ‖ 128-bit address):
///   bits [0,1)    family label (0 = v4-pooled, 1 = v6)
///   bits [1,25)   VNI
///   bits [25,153) address, v4 zero-extended (§4.4 IPv4/IPv6 table pooling)
inline constexpr unsigned kPooledRouteKeyBits = 1 + 24 + 128;

/// Builds the pooled search key for an address within a VNI.
TcamKey make_pooled_key(net::Vni vni, const net::IpAddr& ip);

/// Builds the pooled (value, mask) pair for a route prefix within a VNI.
std::pair<TcamKey, TcamKey> make_pooled_prefix(net::Vni vni,
                                               const net::IpPrefix& prefix);

/// A mask with the `bits` most significant logical bits set.
TcamKey tcam_mask(unsigned bits);

/// Logical bit `index` of a key (0 = most significant).
inline bool tcam_bit(const TcamKey& key, unsigned index) {
  return ((key.w[index / 64] >> (63 - index % 64)) & 1u) != 0;
}

/// Returns key with logical bit `index` set.
inline TcamKey tcam_set_bit(TcamKey key, unsigned index) {
  key.w[index / 64] |= std::uint64_t{1} << (63 - index % 64);
  return key;
}

/// 64-bit hash of a key (for hash-probe directories).
std::uint64_t tcam_hash(const TcamKey& key);

}  // namespace sf::tables

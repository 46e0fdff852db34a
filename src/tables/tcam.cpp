#include "tables/tcam.hpp"

#include "net/hash.hpp"

namespace sf::tables {
namespace {

// Packs (label ‖ vni ‖ address) into the 192-bit TcamKey, left-aligned:
// bit 0 of the logical key is the MSB of w[0].
TcamKey pack(std::uint8_t label, net::Vni vni, const net::Ipv6Addr& addr) {
  // Logical layout: [label:1][vni:24][addr:128], total 153 bits.
  // w[0] = label(1) vni(24) addr[0..39)
  // w[1] = addr[39..103)
  // w[2] = addr[103..128) << 39
  TcamKey key;
  key.w[0] = (std::uint64_t{label} << 63) |
             ((std::uint64_t{vni} & 0xffffff) << 39) | (addr.hi() >> 25);
  key.w[1] = (addr.hi() << 39) | (addr.lo() >> 25);
  key.w[2] = addr.lo() << 39;
  return key;
}

std::uint8_t family_label(net::IpFamily family) {
  return family == net::IpFamily::kV6 ? 1 : 0;
}

}  // namespace

TcamKey tcam_mask(unsigned bits) {
  TcamKey mask;
  for (unsigned word = 0; word < 3; ++word) {
    unsigned start = word * 64;
    if (bits <= start) {
      mask.w[word] = 0;
    } else if (bits >= start + 64) {
      mask.w[word] = ~std::uint64_t{0};
    } else {
      mask.w[word] = ~std::uint64_t{0} << (64 - (bits - start));
    }
  }
  return mask;
}

std::uint64_t tcam_hash(const TcamKey& key) {
  return net::hash_combine(net::hash_combine(net::mix64(key.w[0]),
                                             net::mix64(key.w[1])),
                           net::mix64(key.w[2]));
}

TcamKey make_pooled_key(net::Vni vni, const net::IpAddr& ip) {
  return pack(family_label(ip.family()), vni, ip.widened());
}

std::pair<TcamKey, TcamKey> make_pooled_prefix(net::Vni vni,
                                               const net::IpPrefix& prefix) {
  TcamKey value = pack(family_label(prefix.family()), vni,
                       prefix.widened_address());
  // Fixed fields (label + VNI) are always matched; the address contributes
  // its pooled prefix length.
  TcamKey mask = tcam_mask(1 + 24 + prefix.pooled_length());
  return {value.masked(mask), mask};
}

}  // namespace sf::tables

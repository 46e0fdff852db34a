// Hash primitives used across the gateway: CRC32-C (the polynomial RSS and
// switch hash engines use), a 64-bit finalizing mixer, and flow/key digest
// helpers. All hashes are deterministic and seed-parameterized so that
// simulations are reproducible.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "net/ip.hpp"

namespace sf::net {

/// CRC32-C (Castagnoli, polynomial 0x1EDC6F41 reflected) over a byte span.
/// This is the polynomial used by RSS-style NIC hashing and by switch hash
/// units, implemented in software with slicing-by-8 lookup tables.
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

/// CRC32-C of a 64-bit value (little-endian byte order).
std::uint32_t crc32c_u64(std::uint64_t value, std::uint32_t seed = 0);

/// Strong 64-bit finalizer (splitmix64 / Murmur3-style avalanche).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit hashes.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// 64-bit hash of an IP address (both halves mixed for v6).
constexpr std::uint64_t hash_ip(const IpAddr& ip) {
  std::uint64_t family_tag = ip.is_v6() ? 0x6666ULL : 0x4444ULL;
  return hash_combine(hash_combine(mix64(ip.widened().hi()),
                                   mix64(ip.widened().lo())),
                      mix64(family_tag));
}

/// Compresses a 128-bit key to a w-bit digest (w <= 64). Used by the
/// "compressing longer table entries" technique (§4.4): the IPv6 VM-NC key
/// is reduced to 32 bits with an explicit conflict table for collisions.
constexpr std::uint64_t digest(std::uint64_t hi, std::uint64_t lo,
                               unsigned width_bits,
                               std::uint64_t seed = 0x5a11f15bULL) {
  std::uint64_t h = hash_combine(hash_combine(mix64(seed), mix64(hi)),
                                 mix64(lo));
  return width_bits >= 64 ? h : (h & ((std::uint64_t{1} << width_bits) - 1));
}

}  // namespace sf::net

#include "net/hash.hpp"

#include <array>

namespace sf::net {
namespace {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables of the reflected CRC32-C. Row 0 is the classic
// byte-at-a-time table; row k advances a byte's contribution past k more
// zero bytes, so one step folds 8 input bytes with 8 independent lookups.
constexpr Crc32cTables make_crc32c_tables() {
  constexpr std::uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32c = make_crc32c_tables();

// Little-endian load spelled with shifts: portable, and one load where the
// target allows it.
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kCrc32c[7][lo & 0xff] ^ kCrc32c[6][(lo >> 8) & 0xff] ^
          kCrc32c[5][(lo >> 16) & 0xff] ^ kCrc32c[4][lo >> 24] ^
          kCrc32c[3][hi & 0xff] ^ kCrc32c[2][(hi >> 8) & 0xff] ^
          kCrc32c[1][(hi >> 16) & 0xff] ^ kCrc32c[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kCrc32c[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

std::uint32_t crc32c_u64(std::uint64_t value, std::uint32_t seed) {
  std::array<std::uint8_t, 8> bytes{};
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<size_t>(i)] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return crc32c(bytes, seed);
}

}  // namespace sf::net

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/checksum.hpp"
#include "net/hash.hpp"
#include "net/headers.hpp"
#include "net/mac.hpp"
#include "workload/rng.hpp"

namespace sf::net {
namespace {

TEST(MacAddr, ParsesAndFormats) {
  const MacAddr mac = MacAddr::must_parse("02:00:0a:01:01:0b");
  EXPECT_EQ(mac.value(), 0x02000a01010bULL);
  EXPECT_EQ(mac.to_string(), "02:00:0a:01:01:0b");
}

TEST(MacAddr, RejectsMalformed) {
  for (const char* text :
       {"", "02:00:0a:01:01", "02:00:0a:01:01:0b:0c", "02-00-0a-01-01-0b",
        "0g:00:0a:01:01:0b", "2:0:a:1:1:b"}) {
    EXPECT_FALSE(MacAddr::parse(text).has_value()) << text;
  }
}

TEST(MacAddr, MulticastBit) {
  EXPECT_TRUE(MacAddr::must_parse("01:00:5e:00:00:01").is_multicast());
  EXPECT_FALSE(MacAddr::must_parse("02:00:00:00:00:01").is_multicast());
  EXPECT_TRUE(MacAddr::broadcast().is_multicast());
}

TEST(MacAddr, BytesRoundTrip) {
  const MacAddr mac = MacAddr::must_parse("de:ad:be:ef:00:42");
  auto bytes = mac.bytes();
  std::uint64_t rebuilt = 0;
  for (std::uint8_t b : bytes) rebuilt = (rebuilt << 8) | b;
  EXPECT_EQ(MacAddr(rebuilt), mac);
}

TEST(Crc32c, MatchesKnownVectors) {
  // RFC 3720 appendix B test vector: 32 bytes of zeros.
  std::array<std::uint8_t, 32> zeros{};
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  // "123456789" is the classic check value.
  const char* digits = "123456789";
  std::span<const std::uint8_t> span(
      reinterpret_cast<const std::uint8_t*>(digits), 9);
  EXPECT_EQ(crc32c(span), 0xe3069283u);
}

TEST(Crc32c, SeedChangesResult) {
  std::array<std::uint8_t, 4> data{1, 2, 3, 4};
  EXPECT_NE(crc32c(data, 0), crc32c(data, 1));
}

// The byte-at-a-time table CRC32-C: the reference the sliced
// implementation must match bit for bit.
std::uint32_t crc32c_bytewise(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (std::uint8_t byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xff];
  }
  return ~crc;
}

TEST(Crc32c, MatchesBytewiseReference) {
  workload::Rng rng(2024);
  // Room for the longest span at the largest misalignment.
  std::vector<std::uint8_t> buffer(64 + 8);
  for (int round = 0; round < 40; ++round) {
    for (std::uint8_t& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    const std::uint32_t seed =
        round == 0 ? 0 : static_cast<std::uint32_t>(rng.next_u64());
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t length = 0; length <= 64; ++length) {
        const std::span<const std::uint8_t> data(buffer.data() + offset,
                                                 length);
        ASSERT_EQ(crc32c(data, seed), crc32c_bytewise(data, seed))
            << "round " << round << " offset " << offset << " length "
            << length;
      }
    }
  }
}

TEST(Crc32c, RssHashMatchesBytewiseReference) {
  // FiveTuple::rss_hash's 37-byte layout: src | dst | proto | ports.
  workload::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    FiveTuple tuple;
    if (i % 2 == 0) {
      tuple.src = IpAddr(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())));
      tuple.dst = IpAddr(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())));
    } else {
      tuple.src = IpAddr(Ipv6Addr(rng.next_u64(), rng.next_u64()));
      tuple.dst = IpAddr(Ipv6Addr(rng.next_u64(), rng.next_u64()));
    }
    tuple.proto = static_cast<std::uint8_t>(rng.uniform(256));
    tuple.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
    tuple.dst_port = static_cast<std::uint16_t>(rng.uniform(65536));
    std::array<std::uint8_t, 37> bytes{};
    const auto s = tuple.src.widened().bytes();
    const auto d = tuple.dst.widened().bytes();
    std::copy(s.begin(), s.end(), bytes.begin());
    std::copy(d.begin(), d.end(), bytes.begin() + 16);
    bytes[32] = tuple.proto;
    bytes[33] = static_cast<std::uint8_t>(tuple.src_port >> 8);
    bytes[34] = static_cast<std::uint8_t>(tuple.src_port);
    bytes[35] = static_cast<std::uint8_t>(tuple.dst_port >> 8);
    bytes[36] = static_cast<std::uint8_t>(tuple.dst_port);
    const std::uint32_t seed =
        i < 100 ? 0 : static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(tuple.rss_hash(seed), crc32c_bytewise(bytes, seed)) << i;
  }
}

TEST(Mix64, AvalanchesSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t base = mix64(0x1234'5678'9abc'def0ULL);
  for (int bit = 0; bit < 64; bit += 7) {
    const std::uint64_t flipped =
        mix64(0x1234'5678'9abc'def0ULL ^ (1ULL << bit));
    const int differing = __builtin_popcountll(base ^ flipped);
    EXPECT_GT(differing, 16) << "bit " << bit;
    EXPECT_LT(differing, 48) << "bit " << bit;
  }
}

TEST(Digest, RespectsWidth) {
  const std::uint64_t d16 = digest(0x1234, 0x5678, 16);
  EXPECT_LT(d16, 1u << 16);
  const std::uint64_t d32 = digest(0x1234, 0x5678, 32);
  EXPECT_LT(d32, 1ULL << 32);
}

TEST(Digest, SeedSeparatesStreams) {
  EXPECT_NE(digest(1, 2, 32, 100), digest(1, 2, 32, 101));
}

TEST(HashIp, SeparatesFamilies) {
  // ::0.0.0.1 (v6) and 0.0.0.1 (v4) share widened bits but not hashes.
  EXPECT_NE(hash_ip(IpAddr(Ipv4Addr(1))), hash_ip(IpAddr(Ipv6Addr(0, 1))));
}

TEST(InternetChecksum, VerifiesIpv4Header) {
  // A canonical IPv4 header example (from RFC 1071 style examples).
  std::array<std::uint8_t, 20> header = {
      0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
      0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  const std::uint16_t sum = ipv4_header_checksum(header);
  EXPECT_EQ(sum, 0xb861);
  header[10] = static_cast<std::uint8_t>(sum >> 8);
  header[11] = static_cast<std::uint8_t>(sum);
  EXPECT_TRUE(ipv4_header_checksum_ok(header));
  header[4] ^= 0x01;  // corrupt
  EXPECT_FALSE(ipv4_header_checksum_ok(header));
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  std::array<std::uint8_t, 3> data{0x01, 0x02, 0x03};
  // Manually: words 0x0102, 0x0300 -> sum 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

}  // namespace
}  // namespace sf::net

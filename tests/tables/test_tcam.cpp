#include "tables/tcam.hpp"

#include <gtest/gtest.h>

namespace sf::tables {
namespace {

using net::IpAddr;
using net::IpPrefix;

TEST(TcamKey, MaskedComparison) {
  TcamKey key{{0xffff'0000'0000'0000ULL, 0, 0}};
  TcamKey mask = tcam_mask(8);
  EXPECT_EQ(key.masked(mask).w[0], 0xff00'0000'0000'0000ULL);
}

TEST(TcamMask, CoversWordBoundaries) {
  EXPECT_EQ(tcam_mask(0).w[0], 0u);
  EXPECT_EQ(tcam_mask(64).w[0], ~std::uint64_t{0});
  EXPECT_EQ(tcam_mask(64).w[1], 0u);
  EXPECT_EQ(tcam_mask(65).w[1], 0x8000'0000'0000'0000ULL);
  EXPECT_EQ(tcam_mask(192).w[2], ~std::uint64_t{0});
}

TEST(TcamBit, IndexesAcrossWords) {
  TcamKey key{{1, 0x8000'0000'0000'0000ULL, 0}};
  EXPECT_TRUE(tcam_bit(key, 63));
  EXPECT_TRUE(tcam_bit(key, 64));
  EXPECT_FALSE(tcam_bit(key, 0));
  EXPECT_EQ(tcam_set_bit(TcamKey{}, 64).w[1], 0x8000'0000'0000'0000ULL);
}

TEST(PooledKey, LabelSeparatesFamilies) {
  // A v6 address whose top 96 bits are zero collides bitwise with a
  // zero-extended v4 address; the label bit must separate them.
  const TcamKey v4 = make_pooled_key(7, IpAddr::must_parse("0.0.0.1"));
  const TcamKey v6 = make_pooled_key(7, IpAddr::must_parse("::1"));
  EXPECT_NE(v4, v6);
}

TEST(PooledPrefix, MatchesItsAddresses) {
  auto [value, mask] =
      make_pooled_prefix(5, IpPrefix::must_parse("10.1.0.0/16"));
  const TcamKey inside = make_pooled_key(5, IpAddr::must_parse("10.1.2.3"));
  const TcamKey outside = make_pooled_key(5, IpAddr::must_parse("10.2.0.1"));
  const TcamKey wrong_vni =
      make_pooled_key(6, IpAddr::must_parse("10.1.2.3"));
  EXPECT_EQ(inside.masked(mask), value);
  EXPECT_NE(outside.masked(mask), value);
  EXPECT_NE(wrong_vni.masked(mask), value);
}

}  // namespace
}  // namespace sf::tables

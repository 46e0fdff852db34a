#include "tables/service_tables.hpp"

#include <gtest/gtest.h>

namespace sf::tables {
namespace {

net::FiveTuple tuple(const char* src, const char* dst, std::uint8_t proto,
                     std::uint16_t sport, std::uint16_t dport) {
  return net::FiveTuple{net::IpAddr::must_parse(src),
                        net::IpAddr::must_parse(dst), proto, sport, dport};
}

TEST(AclTable, DefaultVerdictWhenEmpty) {
  AclTable permit(AclVerdict::kPermit);
  AclTable deny(AclVerdict::kDeny);
  const auto t = tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80);
  EXPECT_EQ(permit.evaluate(1, t), AclVerdict::kPermit);
  EXPECT_EQ(deny.evaluate(1, t), AclVerdict::kDeny);
}

TEST(AclTable, WildcardFieldsMatchAnything) {
  AclTable acl;
  AclRule rule;
  rule.dst_port = 22;
  rule.verdict = AclVerdict::kDeny;
  acl.add(rule);
  EXPECT_EQ(acl.evaluate(1, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 22)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(99, tuple("1.1.1.1", "2.2.2.2", 17, 5, 22)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(1, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80)),
            AclVerdict::kPermit);
}

TEST(AclTable, HigherPriorityWins) {
  AclTable acl;
  AclRule deny_all;
  deny_all.vni = 5;
  deny_all.priority = 10;
  deny_all.verdict = AclVerdict::kDeny;
  AclRule allow_web;
  allow_web.vni = 5;
  allow_web.dst_port = 443;
  allow_web.priority = 20;
  allow_web.verdict = AclVerdict::kPermit;
  acl.add(deny_all);
  acl.add(allow_web);
  EXPECT_EQ(acl.evaluate(5, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 443)),
            AclVerdict::kPermit);
  EXPECT_EQ(acl.evaluate(5, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(6, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80)),
            AclVerdict::kPermit);
}

TEST(AclTable, PrefixFieldsMatchSubnets) {
  AclTable acl;
  AclRule rule;
  rule.src = net::IpPrefix::must_parse("192.168.0.0/16");
  rule.verdict = AclVerdict::kDeny;
  acl.add(rule);
  EXPECT_EQ(acl.evaluate(1, tuple("192.168.3.4", "10.0.0.1", 6, 1, 2)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(1, tuple("192.169.0.1", "10.0.0.1", 6, 1, 2)),
            AclVerdict::kPermit);
}

}  // namespace
}  // namespace sf::tables

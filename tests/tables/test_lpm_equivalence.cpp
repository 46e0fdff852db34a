// Cross-implementation LPM equivalence: the TCAM model (priority rows)
// against the reference trie, over randomized route sets — parameterized
// by family mix and table size. Together with tests/tables/test_alpm.cpp
// this closes the loop: LpmTrie == Alpm == Tcam.

#include <gtest/gtest.h>

#include "tables/lpm_trie.hpp"
#include "tables/tcam.hpp"
#include "workload/rng.hpp"

namespace sf::tables {
namespace {

struct EquivalenceParam {
  std::size_t routes;
  double v6_fraction;
  std::uint64_t seed;
};

class TcamEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

net::IpPrefix random_prefix(workload::Rng& rng, bool v6) {
  if (v6) {
    const unsigned len = 16 + static_cast<unsigned>(rng.uniform(113));
    return net::Ipv6Prefix(net::Ipv6Addr(rng.next_u64(), rng.next_u64()),
                           len);
  }
  const unsigned len = 4 + static_cast<unsigned>(rng.uniform(29));
  return net::Ipv4Prefix(
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), len);
}

TEST_P(TcamEquivalenceTest, TcamMatchesTrie) {
  const EquivalenceParam param = GetParam();
  workload::Rng rng(param.seed);

  LpmTrie<int> trie;
  trie.reserve(param.routes);
  Tcam<int> tcam;  // pooled keys, priority = pooled prefix length

  for (std::size_t i = 0; i < param.routes; ++i) {
    const net::Vni vni = static_cast<net::Vni>(rng.uniform(4));
    const bool v6 = rng.uniform_real() < param.v6_fraction;
    const net::IpPrefix prefix = random_prefix(rng, v6);
    const int value = static_cast<int>(i);
    trie.insert(vni, prefix, value);
    auto [key, mask] = make_pooled_prefix(vni, prefix);
    ASSERT_TRUE(tcam.insert(
        key, mask, static_cast<int>(prefix.pooled_length()), value));
  }
  // Replacement keeps the structures aligned.
  ASSERT_EQ(tcam.size(), trie.size());

  auto check = [&](net::Vni vni, const net::IpAddr& ip) {
    EXPECT_EQ(tcam.lookup(make_pooled_key(vni, ip)), trie.lookup(vni, ip))
        << vni << " " << ip.to_string();
  };
  for (int i = 0; i < 400; ++i) {
    const net::Vni vni = static_cast<net::Vni>(rng.uniform(4));
    if (rng.uniform_real() < param.v6_fraction) {
      check(vni, net::IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64())));
    } else {
      check(vni, net::IpAddr(net::Ipv4Addr(
                     static_cast<std::uint32_t>(rng.next_u64()))));
    }
  }
  // Probe at installed prefixes' base addresses too (guaranteed hits).
  for (const auto& entry : trie.entries()) {
    if (entry.prefix.family() == net::IpFamily::kV4) {
      check(entry.vni,
            net::IpAddr(net::Ipv4Addr(static_cast<std::uint32_t>(
                entry.prefix.widened_address().lo()))));
    } else {
      check(entry.vni, net::IpAddr(entry.prefix.widened_address()));
    }
  }

  // Erase half from both; equivalence must survive.
  std::size_t index = 0;
  for (const auto& entry : trie.entries()) {
    if (index++ % 2 != 0) continue;
    auto [key, mask] = make_pooled_prefix(entry.vni, entry.prefix);
    EXPECT_TRUE(tcam.erase(key, mask));
    EXPECT_TRUE(trie.remove(entry.vni, entry.prefix));
  }
  for (int i = 0; i < 200; ++i) {
    const net::Vni vni = static_cast<net::Vni>(rng.uniform(4));
    check(vni, net::IpAddr(net::Ipv4Addr(
                   static_cast<std::uint32_t>(rng.next_u64()))));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RouteMixes, TcamEquivalenceTest,
    ::testing::Values(EquivalenceParam{64, 0.0, 11},
                      EquivalenceParam{128, 0.25, 12},
                      EquivalenceParam{128, 1.0, 13},
                      EquivalenceParam{256, 0.5, 14}));

}  // namespace
}  // namespace sf::tables

// ALPM correctness: unit behaviors plus a property suite that
// cross-validates Alpm against the reference binary trie (LpmTrie) across
// random route sets, bucket sizes and dynamic insert/erase churn.

#include "tables/alpm.hpp"

#include <gtest/gtest.h>

#include "tables/lpm_trie.hpp"
#include "workload/rng.hpp"

namespace sf::tables {
namespace {

using net::IpAddr;
using net::IpPrefix;
using net::Vni;

IpPrefix p(const char* text) { return IpPrefix::must_parse(text); }
IpAddr a(const char* text) { return IpAddr::must_parse(text); }

TEST(Alpm, BasicLongestMatch) {
  Alpm<int> alpm;
  alpm.insert(1, p("10.0.0.0/8"), 8);
  alpm.insert(1, p("10.1.0.0/16"), 16);
  alpm.insert(1, p("10.1.2.0/24"), 24);
  EXPECT_EQ(alpm.lookup(1, a("10.1.2.3")), 24);
  EXPECT_EQ(alpm.lookup(1, a("10.1.9.9")), 16);
  EXPECT_EQ(alpm.lookup(1, a("10.9.9.9")), 8);
  EXPECT_EQ(alpm.lookup(1, a("11.0.0.1")), std::nullopt);
  EXPECT_EQ(alpm.lookup(2, a("10.1.2.3")), std::nullopt);
}

TEST(Alpm, EraseRestoresShorterRoute) {
  Alpm<int> alpm;
  alpm.insert(1, p("10.0.0.0/8"), 8);
  alpm.insert(1, p("10.1.0.0/16"), 16);
  EXPECT_TRUE(alpm.erase(1, p("10.1.0.0/16")));
  EXPECT_EQ(alpm.lookup(1, a("10.1.1.1")), 8);
  EXPECT_FALSE(alpm.erase(1, p("10.1.0.0/16")));
}

TEST(Alpm, FindIsExact) {
  Alpm<int> alpm;
  alpm.insert(1, p("10.0.0.0/8"), 8);
  EXPECT_NE(alpm.find(1, p("10.0.0.0/8")), nullptr);
  EXPECT_EQ(alpm.find(1, p("10.0.0.0/16")), nullptr);
  EXPECT_EQ(alpm.find(2, p("10.0.0.0/8")), nullptr);
}

TEST(Alpm, BucketSplitKeepsAnswersCorrect) {
  Alpm<int>::Config config;
  config.max_bucket_entries = 4;  // force frequent splits
  Alpm<int> alpm(config);
  // 64 host routes under one /16 plus a covering /8.
  alpm.insert(1, p("10.0.0.0/8"), 999);
  for (int i = 0; i < 64; ++i) {
    alpm.insert(1,
                net::Ipv4Prefix(net::Ipv4Addr(10, 1, 0,
                                              static_cast<std::uint8_t>(i)),
                                32),
                i);
  }
  auto stats = alpm.stats();
  EXPECT_GT(stats.partitions, 1u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(alpm.lookup(1, IpAddr(net::Ipv4Addr(
                                 10, 1, 0, static_cast<std::uint8_t>(i)))),
              i);
  }
  // An address under no host route falls back to the covering /8 even in
  // partitions whose bucket lacks it.
  EXPECT_EQ(alpm.lookup(1, a("10.1.0.200")), 999);
  EXPECT_EQ(alpm.lookup(1, a("10.200.0.1")), 999);
}

TEST(Alpm, BucketBoundHolds) {
  Alpm<int>::Config config;
  config.max_bucket_entries = 8;
  Alpm<int> alpm(config);
  workload::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    alpm.insert(static_cast<Vni>(rng.uniform(16)),
                net::Ipv4Prefix(
                    net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                    32),
                i);
  }
  const auto stats = alpm.stats();
  // Every partition respects the hardware bucket bound: routes/partition
  // never exceeds max even in the worst case.
  EXPECT_LE(stats.routes, stats.partitions * config.max_bucket_entries);
  EXPECT_GT(stats.average_fill, 0.2);
}

TEST(Alpm, EmptyPartitionsRetire) {
  Alpm<int>::Config config;
  config.max_bucket_entries = 2;
  Alpm<int> alpm(config);
  for (int i = 0; i < 32; ++i) {
    alpm.insert(1,
                net::Ipv4Prefix(net::Ipv4Addr(10, 0, 0,
                                              static_cast<std::uint8_t>(i)),
                                32),
                i);
  }
  const std::size_t partitions_before = alpm.stats().partitions;
  for (int i = 0; i < 32; ++i) {
    alpm.erase(1, net::Ipv4Prefix(
                      net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)),
                      32));
  }
  EXPECT_EQ(alpm.size(), 0u);
  EXPECT_LT(alpm.stats().partitions, partitions_before);
  // The root partition always survives.
  EXPECT_GE(alpm.stats().partitions, 1u);
}

TEST(Alpm, StatsChargeDirectoryAndBuckets) {
  Alpm<int>::Config config;
  config.max_bucket_entries = 4;
  config.directory_slice_bits = 44;
  Alpm<int> alpm(config);
  for (int i = 0; i < 64; ++i) {
    alpm.insert(1,
                net::Ipv4Prefix(net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(i), 0), 24),
                i);
  }
  const auto stats = alpm.stats();
  EXPECT_EQ(stats.routes, 64u);
  // Directory: ceil(153/44) = 4 slices per pivot row.
  EXPECT_EQ(stats.directory_slices, stats.partitions * 4);
  // Each partition reserves max_bucket slots; slots in shallow-pivot
  // partitions can be multi-word (long suffixes), so allocated words are
  // at least the slot count.
  EXPECT_GE(stats.allocated_bucket_words,
            stats.partitions * config.max_bucket_entries);
  EXPECT_GE(stats.allocated_bucket_words, stats.used_bucket_words);
}

TEST(Alpm, RejectsZeroBucket) {
  Alpm<int>::Config config;
  config.max_bucket_entries = 0;
  EXPECT_THROW(Alpm<int>{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property suite: Alpm == LpmTrie on random workloads.
// ---------------------------------------------------------------------------

struct AlpmPropertyParam {
  std::size_t max_bucket;
  std::size_t routes;
  double v6_fraction;
  std::uint64_t seed;
};

class AlpmPropertyTest : public ::testing::TestWithParam<AlpmPropertyParam> {
};

IpPrefix random_prefix(workload::Rng& rng, bool v6) {
  if (v6) {
    const unsigned len = 32 + static_cast<unsigned>(rng.uniform(97));
    return net::Ipv6Prefix(
        net::Ipv6Addr(rng.next_u64(), rng.next_u64()), len);
  }
  const unsigned len = 8 + static_cast<unsigned>(rng.uniform(25));
  return net::Ipv4Prefix(
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), len);
}

IpAddr random_addr(workload::Rng& rng, bool v6) {
  if (v6) return net::Ipv6Addr(rng.next_u64(), rng.next_u64());
  return net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()));
}

TEST_P(AlpmPropertyTest, MatchesReferenceImplementations) {
  const AlpmPropertyParam param = GetParam();
  workload::Rng rng(param.seed);

  Alpm<int>::Config config;
  config.max_bucket_entries = param.max_bucket;
  Alpm<int> alpm(config);
  LpmTrie<int> trie;

  struct Installed {
    Vni vni;
    IpPrefix prefix;
  };
  std::vector<Installed> installed;

  for (std::size_t i = 0; i < param.routes; ++i) {
    const Vni vni = static_cast<Vni>(rng.uniform(8));
    const bool v6 = rng.uniform_real() < param.v6_fraction;
    const IpPrefix prefix = random_prefix(rng, v6);
    const int value = static_cast<int>(i);
    alpm.insert(vni, prefix, value);
    trie.insert(vni, prefix, value);
    installed.push_back({vni, prefix});
  }
  ASSERT_EQ(alpm.size(), trie.size());

  // Lookups on random addresses plus addresses inside installed prefixes
  // (uniform random addresses rarely hit deep prefixes).
  auto check = [&](Vni vni, const IpAddr& addr) {
    const auto expected = trie.lookup(vni, addr);
    EXPECT_EQ(alpm.lookup(vni, addr), expected) << addr.to_string();
  };
  for (int i = 0; i < 300; ++i) {
    const Vni vni = static_cast<Vni>(rng.uniform(8));
    check(vni, random_addr(rng, rng.chance(param.v6_fraction)));
  }
  for (int i = 0; i < 300; ++i) {
    const Installed& pick = installed[rng.uniform(installed.size())];
    // The prefix's own base address is always inside it.
    if (pick.prefix.family() == net::IpFamily::kV4) {
      check(pick.vni,
            net::Ipv4Addr(static_cast<std::uint32_t>(
                pick.prefix.widened_address().lo())));
    } else {
      check(pick.vni, pick.prefix.widened_address());
    }
  }

  // Churn: remove a third, re-check equivalence.
  for (std::size_t i = 0; i < installed.size(); i += 3) {
    const Installed& victim = installed[i];
    const bool a_ok = alpm.erase(victim.vni, victim.prefix);
    const bool t_ok = trie.remove(victim.vni, victim.prefix);
    EXPECT_EQ(a_ok, t_ok);
  }
  for (int i = 0; i < 300; ++i) {
    const Installed& pick = installed[rng.uniform(installed.size())];
    if (pick.prefix.family() == net::IpFamily::kV4) {
      check(pick.vni,
            net::Ipv4Addr(static_cast<std::uint32_t>(
                pick.prefix.widened_address().lo())));
    } else {
      check(pick.vni, pick.prefix.widened_address());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BucketSizesAndMixes, AlpmPropertyTest,
    ::testing::Values(AlpmPropertyParam{4, 400, 0.0, 101},
                      AlpmPropertyParam{8, 800, 0.25, 102},
                      AlpmPropertyParam{16, 1200, 0.25, 103},
                      AlpmPropertyParam{64, 2000, 0.5, 104},
                      AlpmPropertyParam{32, 1500, 1.0, 105},
                      AlpmPropertyParam{1, 150, 0.25, 106}));

}  // namespace
}  // namespace sf::tables

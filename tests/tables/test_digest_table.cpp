#include "tables/digest_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "workload/rng.hpp"

namespace sf::tables {
namespace {

using net::IpAddr;

VmNcKey key4(net::Vni vni, const char* ip) {
  return VmNcKey{vni, IpAddr::must_parse(ip)};
}

// The geometry every test here declares: 1k buckets x 4 ways, far above
// any test's entry count.
DigestVmNcTable::Config small_config() {
  DigestVmNcTable::Config config;
  config.buckets = 1 << 10;
  return config;
}

TEST(DigestVmNcTable, RequiresADeclaredGeometry) {
  static_assert(!std::is_default_constructible_v<DigestVmNcTable>);
  EXPECT_THROW(DigestVmNcTable{DigestVmNcTable::Config{}},
               std::invalid_argument);
}

TEST(DigestVmNcTable, V4InsertLookupErase) {
  DigestVmNcTable table(small_config());
  const VmNcKey key = key4(5, "192.168.10.2");
  EXPECT_TRUE(table.insert(key, VmNcAction{net::Ipv4Addr(10, 1, 1, 11)}));
  auto hit = table.lookup(5, IpAddr::must_parse("192.168.10.2"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nc_ip, net::Ipv4Addr(10, 1, 1, 11));
  EXPECT_FALSE(table.lookup(6, IpAddr::must_parse("192.168.10.2")));
  EXPECT_TRUE(table.erase(key));
  EXPECT_FALSE(table.lookup(5, IpAddr::must_parse("192.168.10.2")));
}

TEST(DigestVmNcTable, V6LookupThroughDigest) {
  DigestVmNcTable table(small_config());
  const VmNcKey key = key4(7, "2001:db8::42");
  table.insert(key, VmNcAction{net::Ipv4Addr(10, 2, 2, 2)});
  auto hit = table.lookup(7, IpAddr::must_parse("2001:db8::42"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nc_ip, net::Ipv4Addr(10, 2, 2, 2));
  EXPECT_EQ(table.stats().conflict_entries, 0u);
}

TEST(DigestVmNcTable, LabelSeparatesV4FromCompressedV6) {
  DigestVmNcTable table(small_config());
  // A v4 address equal to some v6 digest cannot collide: label bit.
  table.insert(key4(1, "1.2.3.4"), VmNcAction{net::Ipv4Addr(10, 0, 0, 1)});
  table.insert(key4(1, "2001:db8::1"),
               VmNcAction{net::Ipv4Addr(10, 0, 0, 2)});
  EXPECT_EQ(table.lookup(1, IpAddr::must_parse("1.2.3.4"))->nc_ip,
            net::Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(table.lookup(1, IpAddr::must_parse("2001:db8::1"))->nc_ip,
            net::Ipv4Addr(10, 0, 0, 2));
}

// A tiny digest width forces collisions deterministically.
DigestVmNcTable tiny_digest_table() {
  DigestVmNcTable::Config config = small_config();
  config.digest_bits = 4;  // 16 slots: collisions guaranteed quickly
  return DigestVmNcTable(config);
}

TEST(DigestVmNcTable, CollidingV6KeysUseConflictTable) {
  DigestVmNcTable table = tiny_digest_table();
  workload::Rng rng(9);
  std::vector<VmNcKey> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(VmNcKey{
        3, IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64()))});
    ASSERT_TRUE(table.insert(
        keys.back(),
        VmNcAction{net::Ipv4Addr(static_cast<std::uint32_t>(i))}));
  }
  const auto stats = table.stats();
  EXPECT_GT(stats.conflict_entries, 0u);
  EXPECT_EQ(stats.main_entries + stats.conflict_entries, 64u);
  // Every inserted key must still resolve to its own action.
  for (int i = 0; i < 64; ++i) {
    auto hit = table.lookup(3, keys[static_cast<size_t>(i)].vm_ip);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->nc_ip.value(), static_cast<std::uint32_t>(i));
  }
}

TEST(DigestVmNcTable, ErasePromotesConflictEntry) {
  DigestVmNcTable::Config config = small_config();
  config.digest_bits = 1;  // two slots: second same-label key collides
  DigestVmNcTable table(config);
  workload::Rng rng(11);
  // Find two distinct v6 keys with equal digests.
  VmNcKey first{1, IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64()))};
  table.insert(first, VmNcAction{net::Ipv4Addr(1)});
  VmNcKey second;
  while (true) {
    second = VmNcKey{1, IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64()))};
    if (second != first) {
      table.insert(second, VmNcAction{net::Ipv4Addr(2)});
      if (table.stats().conflict_entries == 1) break;
      table.erase(second);
    }
  }
  // Erase the main-table owner; the conflict entry is promoted.
  EXPECT_TRUE(table.erase(first));
  EXPECT_EQ(table.stats().conflict_entries, 0u);
  auto hit = table.lookup(1, second.vm_ip);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nc_ip, net::Ipv4Addr(2));
  // Looking up the erased key now digest-collides with the promoted one:
  // the documented false-positive behavior of digest compression.
  auto stale = table.lookup(1, first.vm_ip);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->nc_ip, net::Ipv4Addr(2));
}

TEST(DigestVmNcTable, ErasePromotesConflictEntryAcrossGrowth) {
  // ErasePromotesConflictEntry's shape, with the main table's host array
  // grown between the collision and the erase that promotes.
  DigestVmNcTable::Config config = small_config();
  config.digest_bits = 1;
  DigestVmNcTable table(config);
  workload::Rng rng(19);
  const VmNcKey first{1,
                      IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64()))};
  ASSERT_TRUE(table.insert(first, VmNcAction{net::Ipv4Addr(1)}));
  VmNcKey second;
  while (true) {
    second = VmNcKey{1, IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64()))};
    if (second == first) continue;
    table.insert(second, VmNcAction{net::Ipv4Addr(2)});
    if (table.stats().conflict_entries == 1) break;
    table.erase(second);
  }

  // Fill well past the first host array (kInitialBuckets x 4 slots) with
  // v4 mappings; each must resolve exactly when its insert succeeded.
  std::vector<std::pair<VmNcKey, bool>> v4;
  auto fill = [&](net::Vni vni, int count) {
    for (int i = 0; i < count; ++i) {
      const VmNcKey key{vni, IpAddr(net::Ipv4Addr(0x0a000000u + i))};
      v4.emplace_back(key, table.insert(key, VmNcAction{net::Ipv4Addr(
                                                 static_cast<std::uint32_t>(i))}));
    }
  };
  auto check_v4 = [&] {
    for (const auto& [key, inserted] : v4) {
      EXPECT_EQ(table.lookup(key.vni, key.vm_ip).has_value(), inserted)
          << key.vni << " " << key.vm_ip.to_string();
    }
  };
  constexpr std::size_t kFirstArraySlots =
      ExactTable<std::uint64_t, VmNcAction>::kInitialBuckets * 4;
  fill(2, 300);
  ASSERT_GT(table.stats().main_entries, kFirstArraySlots);
  EXPECT_EQ(table.stats().conflict_entries, 1u);
  EXPECT_EQ(table.lookup(1, first.vm_ip)->nc_ip, net::Ipv4Addr(1));
  EXPECT_EQ(table.lookup(1, second.vm_ip)->nc_ip, net::Ipv4Addr(2));

  // Erasing the main-table owner promotes the conflict entry into the
  // grown array.
  const std::size_t main_before = table.stats().main_entries;
  EXPECT_TRUE(table.erase(first));
  EXPECT_EQ(table.stats().conflict_entries, 0u);
  EXPECT_EQ(table.stats().main_entries, main_before);
  EXPECT_EQ(table.lookup(1, second.vm_ip)->nc_ip, net::Ipv4Addr(2));
  check_v4();

  // The promoted entry is re-homed like any other on the next growth.
  fill(3, 300);
  EXPECT_GT(table.stats().main_entries, 2 * kFirstArraySlots);
  EXPECT_EQ(table.lookup(1, second.vm_ip)->nc_ip, net::Ipv4Addr(2));
  check_v4();
  EXPECT_TRUE(table.erase(second));
  EXPECT_FALSE(table.lookup(1, second.vm_ip).has_value());
  check_v4();
}

TEST(DigestVmNcTable, ReplaceKeepsSingleEntry) {
  DigestVmNcTable table(small_config());
  const VmNcKey key = key4(2, "2001:db8::7");
  table.insert(key, VmNcAction{net::Ipv4Addr(1)});
  table.insert(key, VmNcAction{net::Ipv4Addr(2)});
  EXPECT_EQ(table.stats().main_entries, 1u);
  EXPECT_EQ(table.lookup(2, key.vm_ip)->nc_ip, net::Ipv4Addr(2));
}

TEST(DigestVmNcTable, EntryWordsChargeConflictsAtWideRate) {
  DigestVmNcTable table = tiny_digest_table();
  workload::Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    table.insert(VmNcKey{1, IpAddr(net::Ipv6Addr(rng.next_u64(),
                                                 rng.next_u64()))},
                 VmNcAction{net::Ipv4Addr(7)});
  }
  const auto stats = table.stats();
  EXPECT_EQ(table.entry_words(),
            stats.main_entries + 4 * stats.conflict_entries);
}

TEST(DigestVmNcTable, DocumentedFalsePositiveForUnknownV6) {
  // The digest table stores no full key: a *never-inserted* v6 address
  // whose digest collides with a real entry returns that entry's action.
  // With 4 digest bits this is easy to demonstrate; with the production
  // 32 bits it is a ~n/2^32 event that the destination vSwitch absorbs.
  DigestVmNcTable table = tiny_digest_table();
  workload::Rng rng(17);
  const VmNcKey real{1,
                     IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64()))};
  table.insert(real, VmNcAction{net::Ipv4Addr(42)});
  int false_positives = 0;
  for (int i = 0; i < 256; ++i) {
    const IpAddr probe(net::Ipv6Addr(rng.next_u64(), rng.next_u64()));
    if (probe == real.vm_ip) continue;
    if (table.lookup(1, probe).has_value()) ++false_positives;
  }
  EXPECT_GT(false_positives, 0);  // collisions at 4-bit digests
}

TEST(DigestVmNcTable, RejectsBadDigestWidth) {
  DigestVmNcTable::Config config = small_config();
  config.digest_bits = 0;
  EXPECT_THROW(DigestVmNcTable{config}, std::invalid_argument);
  config.digest_bits = 33;
  EXPECT_THROW(DigestVmNcTable{config}, std::invalid_argument);
}

}  // namespace
}  // namespace sf::tables

// FlowCache unit behavior: exact-match round trips, epoch-based lazy
// invalidation (the coherence primitive every gateway mutation leans on),
// deterministic eviction, the disabled mode, and the packed key digest.

#include "dataplane/flow_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sf::dataplane {
namespace {

net::FiveTuple tuple(std::uint8_t last_octet, std::uint16_t src_port = 40000) {
  net::FiveTuple t;
  t.src = net::IpAddr(net::Ipv4Addr(10, 0, 0, 1));
  t.dst = net::IpAddr(net::Ipv4Addr(192, 168, 0, last_octet));
  t.proto = 6;
  t.src_port = src_port;
  t.dst_port = 80;
  return t;
}

TEST(FlowCache, InsertFindRoundTrip) {
  FlowCache<int> cache;
  const FlowKey key = make_flow_key(10, tuple(2));
  EXPECT_EQ(cache.find(key, 0), nullptr);
  cache.insert(key, 0, 42);
  int* hit = cache.find(key, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(FlowCache, StaleGenerationIsAMissAndReclaimsTheSlot) {
  FlowCache<int> cache;
  const FlowKey key = make_flow_key(10, tuple(2));
  cache.insert(key, /*generation=*/0, 42);

  // A mutation bumped the epoch: the entry must not replay.
  EXPECT_EQ(cache.find(key, /*generation=*/1), nullptr);
  EXPECT_EQ(cache.stats().stale_reclaims, 1u);
  // The slot was reclaimed outright — even the old epoch misses now.
  EXPECT_EQ(cache.find(key, /*generation=*/0), nullptr);
  EXPECT_EQ(cache.stats().occupied, 0u);

  // Refill under the new epoch works as usual.
  cache.insert(key, 1, 43);
  int* hit = cache.find(key, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 43);
}

TEST(FlowCache, OverwriteSameKeyUpdatesInPlace) {
  FlowCache<int> cache;
  const FlowKey key = make_flow_key(10, tuple(2));
  cache.insert(key, 0, 1);
  cache.insert(key, 0, 2);
  ASSERT_NE(cache.find(key, 0), nullptr);
  EXPECT_EQ(*cache.find(key, 0), 2);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().occupied, 1u);
}

TEST(FlowCache, ZeroEntriesDisablesTheCache) {
  FlowCache<int> cache(FlowCache<int>::Config{/*entries=*/0});
  EXPECT_FALSE(cache.enabled());
  const FlowKey key = make_flow_key(10, tuple(2));
  cache.insert(key, 0, 42);  // no-op
  EXPECT_EQ(cache.find(key, 0), nullptr);
  EXPECT_EQ(cache.capacity(), 0u);
}

TEST(FlowCache, CapacityRoundsUpToPowerOfTwo) {
  FlowCache<int> cache(FlowCache<int>::Config{/*entries=*/1000});
  EXPECT_EQ(cache.capacity(), 1024u);
}

TEST(FlowCache, EvictionIsBoundedAndTheNewestKeyAlwaysLands) {
  // A deliberately tiny cache under a flood of distinct flows: occupancy
  // never exceeds capacity, evictions are counted, and the most recent
  // insert is always immediately findable (the hot flow wins its window).
  FlowCache<int> cache(FlowCache<int>::Config{/*entries=*/64});
  for (int i = 0; i < 10'000; ++i) {
    const FlowKey key =
        make_flow_key(static_cast<std::uint32_t>(i), tuple(5));
    cache.insert(key, 0, i);
    ASSERT_NE(cache.find(key, 0), nullptr) << i;
  }
  EXPECT_LE(cache.stats().high_watermark, cache.capacity());
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(FlowCache, InsertKeepsOtherGenerationsAndEvictsTheHomeSlotLast) {
  // Owners stamp each entry with the generation of what its own walk
  // read, so an entry under another generation is not stale to the
  // inserter. Insert takes the key's own slot, then the first empty slot
  // in the window, and only then evicts the home slot.
  FlowCache<int> cache(
      FlowCache<int>::Config{/*entries=*/64, /*max_probes=*/4});
  std::vector<FlowKey> same_home;
  for (std::uint32_t vni = 0; same_home.size() < 5; ++vni) {
    const FlowKey key = make_flow_key(vni, tuple(5));
    if ((key.hi & 63) == 7) same_home.push_back(key);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    cache.insert(same_home[i], /*generation=*/i, static_cast<int>(i));
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().occupied, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.contains(same_home[i], i)) << i;
  }

  // The key's own slot wins over everything, whatever its generation.
  cache.insert(same_home[2], /*generation=*/9, 20);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().occupied, 4u);
  ASSERT_NE(cache.find(same_home[2], 9), nullptr);
  EXPECT_EQ(*cache.find(same_home[2], 9), 20);

  // The window is full: the fifth key evicts the home slot (the first
  // key), and the others keep their entries.
  cache.insert(same_home[4], /*generation=*/4, 4);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(same_home[0], 0), nullptr);
  ASSERT_NE(cache.find(same_home[4], 4), nullptr);
  EXPECT_TRUE(cache.contains(same_home[1], 1));
  EXPECT_TRUE(cache.contains(same_home[3], 3));

  // A reclaimed slot is empty again and is preferred over evicting home.
  EXPECT_EQ(cache.find(same_home[1], /*generation=*/8), nullptr);
  EXPECT_EQ(cache.stats().stale_reclaims, 1u);
  cache.insert(same_home[0], /*generation=*/0, 0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.contains(same_home[0], 0));
  EXPECT_TRUE(cache.contains(same_home[4], 4));
}

TEST(FlowCache, ClearDropsEverything) {
  FlowCache<int> cache;
  const FlowKey key = make_flow_key(10, tuple(2));
  cache.insert(key, 0, 42);
  cache.clear();
  EXPECT_EQ(cache.find(key, 0), nullptr);
  EXPECT_EQ(cache.stats().occupied, 0u);
}

TEST(FlowCache, ContainsTracksLiveEntriesOnly) {
  FlowCache<int> cache;
  const FlowKey key = make_flow_key(10, tuple(2));
  EXPECT_FALSE(cache.contains(key, 0));
  cache.insert(key, 0, 42);
  EXPECT_TRUE(cache.contains(key, 0));
  EXPECT_FALSE(cache.contains(make_flow_key(10, tuple(3)), 0));
  // A stale generation reads as absent, but the slot is NOT reclaimed —
  // contains() is a pure observer; find() still sees the stale entry.
  EXPECT_FALSE(cache.contains(key, 1));
  EXPECT_EQ(cache.stats().stale_reclaims, 0u);
  EXPECT_EQ(cache.stats().occupied, 1u);
  EXPECT_NE(cache.find(key, 0), nullptr);

  const FlowCache<int> disabled{FlowCache<int>::Config{/*entries=*/0}};
  EXPECT_FALSE(disabled.contains(key, 0));
}

TEST(FlowCache, ContainsNeverPerturbsHitMissAccounting) {
  // The guard's established-flow probe rides on contains(); if it bumped
  // hits/misses the cache-on/off byte-identity contract would break.
  FlowCache<int> cache;
  const FlowKey key = make_flow_key(10, tuple(2));
  cache.insert(key, 0, 42);
  const FlowCacheStats before = cache.stats();
  for (int i = 0; i < 100; ++i) {
    cache.contains(key, 0);                       // live hit
    cache.contains(key, 7);                       // stale generation
    cache.contains(make_flow_key(99, tuple(9)), 0);  // absent
  }
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().insertions, before.insertions);
  EXPECT_EQ(cache.stats().evictions, before.evictions);
  EXPECT_EQ(cache.stats().stale_reclaims, before.stale_reclaims);
}

TEST(FlowCache, OccupancyCountsSlotsAndTheWatermarkIsSticky) {
  FlowCache<int> cache;
  cache.insert(make_flow_key(1, tuple(2)), 0, 1);
  cache.insert(make_flow_key(2, tuple(3)), 0, 2);
  EXPECT_EQ(cache.stats().occupied, 2u);
  EXPECT_EQ(cache.stats().high_watermark, 2u);

  // A stale-generation probe reclaims its slot: live occupancy falls,
  // the high watermark does not.
  EXPECT_EQ(cache.find(make_flow_key(1, tuple(2)), 1), nullptr);
  EXPECT_EQ(cache.stats().occupied, 1u);
  EXPECT_EQ(cache.stats().high_watermark, 2u);

  // Overwriting a live key in place claims no new slot.
  cache.insert(make_flow_key(2, tuple(3)), 0, 5);
  EXPECT_EQ(cache.stats().occupied, 1u);
  EXPECT_EQ(cache.stats().high_watermark, 2u);

  cache.clear();
  EXPECT_EQ(cache.stats().occupied, 0u);
  EXPECT_EQ(cache.stats().high_watermark, 0u);
}

TEST(FlowKeyDigest, DistinguishesEveryKeyField) {
  const FlowKey base = make_flow_key(10, tuple(2));
  EXPECT_EQ(base, make_flow_key(10, tuple(2)));  // deterministic

  EXPECT_FALSE(base == make_flow_key(11, tuple(2)));        // vni
  EXPECT_FALSE(base == make_flow_key(10, tuple(3)));        // dst ip
  EXPECT_FALSE(base == make_flow_key(10, tuple(2, 40001)))  // src port
      << "src_port must feed the digest";
  net::FiveTuple udp = tuple(2);
  udp.proto = 17;
  EXPECT_FALSE(base == make_flow_key(10, udp));  // proto
  net::FiveTuple other_src = tuple(2);
  other_src.src = net::IpAddr(net::Ipv4Addr(10, 0, 0, 2));
  EXPECT_FALSE(base == make_flow_key(10, other_src));  // src ip
  net::FiveTuple other_dport = tuple(2);
  other_dport.dst_port = 443;
  EXPECT_FALSE(base == make_flow_key(10, other_dport));  // dst port
}

TEST(FlowCacheDefaults, DefaultEntriesIsAPowerOfTwoOrDisabled) {
  const std::size_t entries = default_flow_cache_entries();
  // Honors SF_FLOW_CACHE when set; either way the FlowCache built from it
  // must be internally consistent.
  FlowCache<int> cache(FlowCache<int>::Config{entries});
  EXPECT_EQ(cache.enabled(), entries != 0);
  EXPECT_GE(cache.capacity(), entries);
}

}  // namespace
}  // namespace sf::dataplane

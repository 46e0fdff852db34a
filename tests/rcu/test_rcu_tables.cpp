// MVCC and reclamation semantics of the RCU tables (DESIGN.md §13).
//
// Single-threaded here on purpose: every visibility window, return value
// and reclamation phase is checked deterministically. The concurrent
// contract (many readers racing one mutator) lives in test_rcu_stress.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <vector>

#include "net/ip.hpp"
#include "rcu/epoch.hpp"
#include "rcu/rcu_exact_table.hpp"
#include "rcu/rcu_lpm.hpp"
#include "tables/lpm_trie.hpp"

namespace sf::rcu {
namespace {

using net::IpAddr;
using net::IpPrefix;

TEST(RcuExactTable, VisibilityWindowsAreDisjointPerVersion) {
  RcuExactTable<int, int> table(16);
  table.insert(1, 100, /*seq=*/1);
  table.insert(1, 200, /*seq=*/3);  // replaces: v100 dies at 3
  table.erase(1, /*seq=*/5);        // v200 dies at 5

  EXPECT_EQ(table.lookup(1, 0), nullptr);
  ASSERT_NE(table.lookup(1, 1), nullptr);
  EXPECT_EQ(*table.lookup(1, 1), 100);
  EXPECT_EQ(*table.lookup(1, 2), 100);
  EXPECT_EQ(*table.lookup(1, 3), 200);
  EXPECT_EQ(*table.lookup(1, 4), 200);
  EXPECT_EQ(table.lookup(1, 5), nullptr);
  EXPECT_EQ(table.lookup(1, 99), nullptr);
}

TEST(RcuExactTable, InsertAndEraseReturnValues) {
  RcuExactTable<int, int> table(16);
  EXPECT_TRUE(table.insert(7, 1, 1));    // new key
  EXPECT_FALSE(table.insert(7, 2, 2));   // replace
  EXPECT_EQ(table.live_size(), 1u);
  EXPECT_TRUE(table.erase(7, 3));
  EXPECT_FALSE(table.erase(7, 4));       // already dead
  EXPECT_FALSE(table.erase(8, 4));       // never existed
  EXPECT_EQ(table.live_size(), 0u);
  EXPECT_TRUE(table.insert(7, 3, 5));    // resurrect counts as new
}

// Random op script, then every (key, seq) lookup must match a plain
// std::map replayed to the same point.
TEST(RcuExactTable, DifferentialVsMapAtEverySeq) {
  constexpr int kKeys = 8;
  constexpr std::uint64_t kSeqs = 200;
  RcuExactTable<int, std::uint64_t> table(16);
  std::mt19937 rng(0xF00D);
  std::uniform_int_distribution<int> key_dist(0, kKeys - 1);
  std::uniform_int_distribution<int> op_dist(0, 2);

  // snapshots[s] = reference state at seq s (index 0 = empty table).
  std::vector<std::map<int, std::uint64_t>> snapshots(1);
  for (std::uint64_t seq = 1; seq <= kSeqs; ++seq) {
    std::map<int, std::uint64_t> state = snapshots.back();
    const int key = key_dist(rng);
    if (op_dist(rng) == 0) {
      table.erase(key, seq);
      state.erase(key);
    } else {
      table.insert(key, seq, seq);
      state[key] = seq;
    }
    snapshots.push_back(std::move(state));
  }

  for (std::uint64_t seq = 0; seq <= kSeqs; ++seq) {
    for (int key = 0; key < kKeys; ++key) {
      const std::uint64_t* got = table.lookup(key, seq);
      const auto want = snapshots[seq].find(key);
      if (want == snapshots[seq].end()) {
        EXPECT_EQ(got, nullptr) << "key " << key << " seq " << seq;
      } else {
        ASSERT_NE(got, nullptr) << "key " << key << " seq " << seq;
        EXPECT_EQ(*got, want->second) << "key " << key << " seq " << seq;
      }
    }
  }
}

TEST(RcuExactTable, CollectFreesDeadNodesWhenNoReaderIsPinned) {
  EpochManager epoch;
  RcuExactTable<int, int> table(16);
  table.insert(1, 10, 1);
  table.insert(1, 20, 2);  // first version dead at 2
  table.erase(1, 3);       // second dead at 3
  EXPECT_EQ(table.outstanding_nodes(), 2u);

  // keep_from = 3: no future pin below 3, both versions invisible there.
  table.collect(3, epoch);
  EXPECT_EQ(table.limbo_size(), 0u);  // grace trivially over: no readers
  EXPECT_EQ(table.outstanding_nodes(), 0u);
}

TEST(RcuExactTable, CollectHonorsAPinnedReader) {
  EpochManager epoch;
  RcuExactTable<int, int> table(16);
  table.insert(1, 10, 1);
  epoch.publish(1);

  EpochManager::Reader reader(epoch);
  reader.pin(1);
  table.erase(1, 2);
  epoch.publish(2);

  // The pin at 1 keeps the version alive through any collect.
  table.collect(2, epoch);
  ASSERT_NE(table.lookup(1, 1), nullptr);
  EXPECT_EQ(*table.lookup(1, 1), 10);
  EXPECT_EQ(table.outstanding_nodes(), 1u);

  reader.unpin();
  table.collect(2, epoch);
  EXPECT_EQ(table.outstanding_nodes(), 0u);
}

// The era grace period: a reader pinned at a seq where a node is already
// invisible still holds its *memory* in limbo until the reader
// re-announces — it may be mid-traversal of a chain that linked the node.
TEST(RcuExactTable, EraGraceHoldsLimboUntilReaderReannounces) {
  EpochManager epoch;
  RcuExactTable<int, int> table(16);
  table.insert(1, 10, 1);
  epoch.publish(1);

  EpochManager::Reader reader(epoch);
  reader.pin(1);
  table.erase(1, 2);
  epoch.publish(2);
  reader.unpin();
  reader.pin(2);  // node invisible at 2, but era announced pre-collect

  table.collect(2, epoch);
  EXPECT_EQ(table.lookup(1, 2), nullptr);  // unlinked (or just invisible)
  EXPECT_EQ(table.limbo_size(), 1u);       // …but the memory is held
  EXPECT_EQ(table.outstanding_nodes(), 1u);

  reader.unpin();
  reader.pin(2);  // re-announce: traversal now postdates the unlink
  table.collect(2, epoch);
  EXPECT_EQ(table.limbo_size(), 0u);
  EXPECT_EQ(table.outstanding_nodes(), 0u);
  reader.unpin();
}

// ---- RcuLpm ----------------------------------------------------------

struct LpmOp {
  bool insert = true;
  net::Vni vni = 0;
  const char* prefix = nullptr;
  int value = 0;
};

// Agreement with the reference trie (tables::LpmTrie) at *every* version:
// a reader pinned at any seq sees exactly the longest-prefix match of the
// routes as of that seq.
TEST(RcuLpm, DifferentialVsLpmTrieAtEverySeq) {
  const LpmOp ops[] = {
      {true, 5, "0.0.0.0/0", 1},    {true, 5, "10.0.0.0/8", 2},
      {true, 5, "10.1.0.0/16", 3},  {true, 5, "10.1.2.0/24", 4},
      {true, 5, "10.1.2.3/32", 5},  {false, 5, "10.1.0.0/16", 0},
      {true, 6, "10.0.0.0/8", 7},   {true, 5, "10.0.0.0/8", 8},
      {false, 5, "10.1.2.3/32", 0}, {false, 5, "0.0.0.0/0", 0},
  };
  const char* probes[] = {"10.1.2.3", "10.1.2.9", "10.1.9.9",
                          "10.200.0.1", "8.8.8.8"};

  EpochManager epoch;
  RcuLpm<int> rcu(64);
  std::uint64_t seq = 0;
  for (const LpmOp& op : ops) {
    ++seq;
    if (op.insert) {
      rcu.insert(op.vni, IpPrefix::must_parse(op.prefix), op.value, seq);
    } else {
      EXPECT_TRUE(rcu.erase(op.vni, IpPrefix::must_parse(op.prefix), seq));
    }
    epoch.publish(seq);
  }

  EpochManager::Reader reader(epoch);
  for (std::uint64_t at = 0; at <= seq; ++at) {
    // Reference: a fresh LpmTrie replayed to the same point.
    tables::LpmTrie<int> ref;
    for (std::uint64_t k = 0; k < at; ++k) {
      if (ops[k].insert) {
        ref.insert(ops[k].vni, IpPrefix::must_parse(ops[k].prefix),
                   ops[k].value);
      } else {
        ref.remove(ops[k].vni, IpPrefix::must_parse(ops[k].prefix));
      }
    }
    EpochManager::PinGuard pin(reader, at);
    for (net::Vni vni : {net::Vni{5}, net::Vni{6}}) {
      for (const char* probe : probes) {
        const IpAddr ip = IpAddr::must_parse(probe);
        const std::optional<int> want = ref.lookup(vni, ip);
        const int* got = rcu.lookup(vni, ip, at);
        if (!want.has_value()) {
          EXPECT_EQ(got, nullptr) << "vni " << vni << " " << probe
                                  << " at seq " << at;
        } else {
          ASSERT_NE(got, nullptr) << "vni " << vni << " " << probe
                                  << " at seq " << at;
          EXPECT_EQ(*got, *want) << "vni " << vni << " " << probe
                                 << " at seq " << at;
        }
      }
    }
  }
}

TEST(RcuLpm, ReplacementIsInvisibleToEarlierPins) {
  EpochManager epoch;
  RcuLpm<int> lpm(64);
  const IpPrefix prefix = IpPrefix::must_parse("10.0.0.0/16");
  lpm.insert(9, prefix, 1, 1);
  lpm.insert(9, prefix, 2, 2);
  epoch.publish(2);

  EpochManager::Reader reader(epoch);
  const IpAddr ip = IpAddr::must_parse("10.0.3.4");
  {
    EpochManager::PinGuard pin(reader, 1);
    ASSERT_NE(lpm.lookup(9, ip, 1), nullptr);
    EXPECT_EQ(*lpm.lookup(9, ip, 1), 1);
  }
  {
    EpochManager::PinGuard pin(reader, 2);
    ASSERT_NE(lpm.lookup(9, ip, 2), nullptr);
    EXPECT_EQ(*lpm.lookup(9, ip, 2), 2);
  }
}

}  // namespace
}  // namespace sf::rcu

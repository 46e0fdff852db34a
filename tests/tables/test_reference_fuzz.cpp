// Randomized-operation fuzz of the hash structures against std:: reference
// containers: thousands of interleaved insert/erase/lookup ops must agree
// exactly with std::unordered_map / std::map semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/hash.hpp"
#include "tables/entry.hpp"
#include "tables/exact_table.hpp"
#include "tables/masked_key_map.hpp"
#include "workload/rng.hpp"

namespace sf::tables {
namespace {

// The pooled VM-NC instantiation (DigestVmNcTable's main table): 64-bit
// label‖VNI‖ip32 keys hashed with mix64.
struct Mix64Hasher {
  std::uint64_t operator()(std::uint64_t key) const { return net::mix64(key); }
};
using PooledTable = ExactTable<std::uint64_t, VmNcAction, Mix64Hasher>;

TEST(ExactTableLayout, PooledBucketIsOneAlignedCacheLine) {
  EXPECT_EQ(PooledTable::slot_bytes(), 16u);
  EXPECT_EQ(4 * PooledTable::slot_bytes(), kCacheLineBytes);
  for (std::size_t buckets : {1u, 16u, 1u << 14}) {
    PooledTable table({buckets, 4});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.slot_data()) %
                  kCacheLineBytes,
              0u)
        << buckets << " buckets";
  }
}

// A deliberately naive set-associative table: one vector of ways per
// bucket, the same hash and way count, first free way wins.
class BucketModel {
 public:
  BucketModel(std::size_t buckets, unsigned ways)
      : buckets_(buckets, std::vector<Way>(ways)) {}

  bool insert(std::uint64_t key, VmNcAction value) {
    std::vector<Way>& ways = bucket(key);
    for (Way& way : ways) {
      if (way && way->first == key) {
        way->second = value;
        return true;
      }
    }
    for (Way& way : ways) {
      if (!way) {
        way.emplace(key, value);
        ++size_;
        return true;
      }
    }
    ++insert_failures_;
    return false;
  }

  bool erase(std::uint64_t key) {
    for (Way& way : bucket(key)) {
      if (way && way->first == key) {
        way.reset();
        --size_;
        return true;
      }
    }
    return false;
  }

  std::optional<VmNcAction> lookup(std::uint64_t key) {
    for (const Way& way : bucket(key)) {
      if (way && way->first == key) return way->second;
    }
    return std::nullopt;
  }

  /// The entry set, ascending by key.
  std::vector<std::pair<std::uint64_t, VmNcAction>> entries() const {
    std::vector<std::pair<std::uint64_t, VmNcAction>> out;
    for (const std::vector<Way>& ways : buckets_) {
      for (const Way& way : ways) {
        if (way) out.push_back(*way);
      }
    }
    std::ranges::sort(out, {}, &std::pair<std::uint64_t, VmNcAction>::first);
    return out;
  }

  std::size_t insert_failures() const { return insert_failures_; }
  std::size_t size() const { return size_; }

 private:
  using Way = std::optional<std::pair<std::uint64_t, VmNcAction>>;

  std::vector<Way>& bucket(std::uint64_t key) {
    return buckets_[net::mix64(key) % buckets_.size()];
  }

  std::vector<std::vector<Way>> buckets_;
  std::size_t size_ = 0;
  std::size_t insert_failures_ = 0;
};

/// The table's entry set, ascending by key: for_each promises no order
/// (a growing table re-homes entries and packs out erase holes).
std::vector<std::pair<std::uint64_t, VmNcAction>> table_entries(
    const PooledTable& table) {
  std::vector<std::pair<std::uint64_t, VmNcAction>> out;
  table.for_each([&](const std::uint64_t& key, const VmNcAction& value) {
    out.emplace_back(key, value);
  });
  std::ranges::sort(out, {}, &std::pair<std::uint64_t, VmNcAction>::first);
  return out;
}

TEST(ExactTableFuzz, MatchesPerBucketReferenceModel) {
  // 256 buckets x 4 ways against ~2k live keys: buckets overflow often,
  // so the failure path and the erase-then-refill path both run.
  constexpr std::size_t kBuckets = 256;
  constexpr unsigned kWays = 4;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    PooledTable table({kBuckets, kWays});
    BucketModel model(kBuckets, kWays);
    workload::Rng rng(seed);

    auto pooled_key = [&rng] {
      const std::uint64_t label = rng.uniform(2);
      const std::uint64_t vni = rng.uniform(16);
      const std::uint64_t ip = rng.uniform(128);
      return (label << 56) | (vni << 32) | ip;
    };

    for (int op = 0; op < 100'000; ++op) {
      const std::uint64_t key = pooled_key();
      const int roll = static_cast<int>(rng.uniform(10));
      if (roll < 5) {
        const VmNcAction value{
            net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()))};
        ASSERT_EQ(table.insert(key, value), model.insert(key, value)) << op;
      } else if (roll < 7) {
        ASSERT_EQ(table.erase(key), model.erase(key)) << op;
      } else {
        ASSERT_EQ(table.lookup(key), model.lookup(key)) << op;
      }
      if (op % 10'000 == 0) {
        ASSERT_EQ(table_entries(table), model.entries()) << op;
      }
    }
    EXPECT_EQ(table_entries(table), model.entries());
    EXPECT_EQ(table.stats().insert_failures, model.insert_failures());
    EXPECT_GT(model.insert_failures(), 0u);
    EXPECT_EQ(table.size(), model.entries().size());
  }
}

TEST(ExactTableFuzz, GrowingTableMatchesFixedGeometry) {
  // The host array starts at kInitialBuckets and doubles on demand; the
  // fixed-geometry model holds the configured 1024 buckets from the start.
  // Growth must be invisible: every op returns what the model returns, and
  // capacity() always reports the configured slots.
  constexpr std::size_t kBuckets = 1024;
  constexpr unsigned kWays = 4;
  constexpr std::uint64_t kUniverse = 6000;
  PooledTable table({kBuckets, kWays});
  BucketModel model(kBuckets, kWays);
  workload::Rng rng(53);

  std::vector<std::size_t> host_sizes{table.host_slots()};
  auto check_every_key = [&](int op) {
    for (std::uint64_t key = 0; key < kUniverse; ++key) {
      ASSERT_EQ(table.lookup(key), model.lookup(key))
          << "op " << op << " key " << key;
    }
  };

  for (int op = 0; op < 60'000; ++op) {
    const std::uint64_t key = rng.uniform(kUniverse);
    const int roll = static_cast<int>(rng.uniform(10));
    if (roll < 6) {
      const VmNcAction value{
          net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()))};
      const bool inserted = model.insert(key, value);
      ASSERT_EQ(table.insert(key, value), inserted) << op;
      // A bucket full at the configured size is full at every smaller
      // one, so a failing insert has grown the array to the cap first.
      if (!inserted) {
        ASSERT_EQ(table.host_slots(), table.capacity()) << op;
      }
    } else if (roll < 8) {
      ASSERT_EQ(table.erase(key), model.erase(key)) << op;
    }
    ASSERT_EQ(table.lookup(key), model.lookup(key)) << op;
    ASSERT_EQ(table.size(), model.size()) << op;
    ASSERT_EQ(table.stats().insert_failures, model.insert_failures()) << op;
    ASSERT_EQ(table.capacity(), kBuckets * kWays) << op;
    ASSERT_EQ(table.stats().capacity, kBuckets * kWays) << op;
    ASSERT_LE(table.host_slots(), table.capacity()) << op;
    if (table.host_slots() != host_sizes.back()) {
      host_sizes.push_back(table.host_slots());
      check_every_key(op);
    }
  }
  check_every_key(60'000);

  // 64 -> 128 -> 256 -> 512 -> 1024 buckets, each size seen in turn, and
  // the stream overflowed buckets at the cap.
  const std::vector<std::size_t> expected_sizes{
      64 * kWays, 128 * kWays, 256 * kWays, 512 * kWays, 1024 * kWays};
  EXPECT_EQ(host_sizes, expected_sizes);
  EXPECT_GT(model.insert_failures(), 0u);
}

TEST(ExactTableLayout, HostArrayStartsAtOnePage) {
  PooledTable large({1 << 14, 4});
  EXPECT_EQ(large.host_slots() * PooledTable::slot_bytes(), 4096u);
  EXPECT_EQ(large.capacity(), (std::size_t{1} << 14) * 4);
  // A table configured below one page starts at its full size.
  PooledTable tiny({16, 4});
  EXPECT_EQ(tiny.host_slots(), tiny.capacity());
}

TEST(ExactTableFuzz, AgreesWithUnorderedMap) {
  ExactTable<std::uint64_t, int> table({1 << 12, 4});
  std::unordered_map<std::uint64_t, int> reference;
  workload::Rng rng(31);

  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t key = rng.uniform(4'000);
    const int roll = static_cast<int>(rng.uniform(10));
    if (roll < 5) {
      const int value = static_cast<int>(rng.uniform(1'000'000));
      // Sized at 4x the key universe: inserts must always succeed.
      ASSERT_TRUE(table.insert(key, value));
      reference[key] = value;
    } else if (roll < 8) {
      EXPECT_EQ(table.erase(key), reference.erase(key) > 0);
    } else {
      auto hit = table.lookup(key);
      auto expected = reference.find(key);
      if (expected == reference.end()) {
        EXPECT_FALSE(hit.has_value());
      } else {
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, expected->second);
      }
    }
    if (op % 4096 == 0) {
      EXPECT_EQ(table.size(), reference.size());
    }
  }
  EXPECT_EQ(table.size(), reference.size());
}

struct DepthKeyRef {
  std::uint64_t bits;
  unsigned depth;

  friend bool operator<(const DepthKeyRef& a, const DepthKeyRef& b) {
    return std::tie(a.bits, a.depth) < std::tie(b.bits, b.depth);
  }
};

TEST(MaskedKeyMapFuzz, AgreesWithOrderedReference) {
  MaskedKeyMap<int> map;
  std::map<DepthKeyRef, int> reference;
  workload::Rng rng(37);

  auto make_key = [](std::uint64_t bits) {
    return TcamKey{{bits, 0, 0}};
  };

  for (int op = 0; op < 10'000; ++op) {
    const unsigned depth = 4 + static_cast<unsigned>(rng.uniform(16));
    const std::uint64_t bits = rng.next_u64();
    const std::uint64_t canonical =
        bits & (~std::uint64_t{0} << (64 - depth));
    const int roll = static_cast<int>(rng.uniform(10));
    if (roll < 6) {
      const int value = static_cast<int>(rng.uniform(1'000'000));
      map.insert(make_key(bits), depth, value);
      reference[{canonical, depth}] = value;
    } else if (roll < 8) {
      EXPECT_EQ(map.erase(make_key(bits), depth),
                reference.erase({canonical, depth}) > 0);
    } else {
      // Longest match: the reference scans depths descending.
      auto probe = make_key(bits);
      std::optional<std::pair<int, unsigned>> expected;
      for (unsigned d = 20; d >= 4 && !expected; --d) {
        const std::uint64_t masked =
            bits & (~std::uint64_t{0} << (64 - d));
        auto it = reference.find({masked, d});
        if (it != reference.end()) expected = {{it->second, d}};
      }
      const auto got = map.longest_match(probe);
      EXPECT_EQ(got.has_value(), expected.has_value());
      if (got && expected) {
        EXPECT_EQ(got->first, expected->first);
        EXPECT_EQ(got->second, expected->second);
      }
    }
  }
  EXPECT_EQ(map.size(), reference.size());
}

}  // namespace
}  // namespace sf::tables

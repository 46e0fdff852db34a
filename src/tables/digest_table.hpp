// The pooled, digest-compressed VM-NC mapping table (§4.4, "IPv4/IPv6
// table pooling" + "Compressing longer table entries").
//
// One physical exact-match table serves both families. The lookup key is
//   label(1) ‖ VNI(24) ‖ ip32(32)
// where ip32 is the IPv4 address itself (label 0) or a 32-bit hash digest
// of the IPv6 address (label 1). Two collision classes exist:
//   * v4 vs compressed-v6: impossible by construction — the label bit
//     separates the namespaces.
//   * two v6 keys with equal digests: the second key is diverted to a small
//     conflict table that stores the full 128-bit key. Lookups consult the
//     conflict table first, then the digest table (paper's lookup order).
//
// Like the paper's design, the digest table stores no full key, so a lookup
// for a *never-inserted* v6 address whose digest collides with a real entry
// returns that entry's action (a false positive). The cloud gateway
// tolerates this: traffic only arrives for provisioned VMs, and a stray
// packet is dropped by the destination vSwitch. tests/tables exercise both
// properties.

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/hash.hpp"
#include "tables/entry.hpp"
#include "tables/exact_table.hpp"

namespace sf::tables {

class DigestVmNcTable {
 public:
  struct Config {
    /// Buckets/ways of the main pooled table. Every owner declares the
    /// bucket count it models; the unset 0 is rejected at construction.
    std::size_t buckets = 0;
    unsigned ways = 4;
    /// Digest width in bits (the paper compresses 128 -> 32).
    unsigned digest_bits = 32;
    /// Seed of the digest hash; varied by tests to force collisions.
    std::uint64_t digest_seed = 0x5a11f15bULL;
  };

  struct Stats {
    std::size_t main_entries = 0;
    std::size_t conflict_entries = 0;
    std::size_t insert_failures = 0;
    std::size_t false_positive_candidates = 0;  // digest collisions seen
  };

  explicit DigestVmNcTable(Config config);

  /// Inserts or replaces a VM -> NC mapping.
  bool insert(const VmNcKey& key, VmNcAction action);

  /// Removes a mapping; promotes a conflict-table entry whose digest slot
  /// frees up back into the main table.
  bool erase(const VmNcKey& key);

  std::optional<VmNcAction> lookup(net::Vni vni, const net::IpAddr& ip) const;

  /// Prefetches the main-table bucket a later lookup(vni, ip) will scan
  /// (the conflict store is tiny and stays hot on its own).
  void prefetch(net::Vni vni, const net::IpAddr& ip) const;

  Stats stats() const;

  /// SRAM words (128-bit) the main table's *entries* occupy — 1 word per
  /// pooled entry. The conflict table stores the full 152-bit key and
  /// costs 4 words per entry (wide-key replication, DESIGN.md §1).
  std::size_t entry_words() const;

  const Config& config() const { return config_; }

  /// The compressed 32-bit ip field of the pooled key. A lookup of
  /// (vni, ip) only reads entries whose ip32 equals ip32(ip), so an insert
  /// or erase of a key changes lookups of addresses sharing its ip32 only
  /// (colliding v6 digests included).
  std::uint32_t ip32(const net::IpAddr& ip) const;

 private:
  /// Pooled main-table key: label ‖ vni ‖ ip32 packed into 64 bits.
  std::uint64_t pooled_key(const VmNcKey& key) const;
  std::uint64_t pooled_key(net::Vni vni, const net::IpAddr& ip) const;

  struct PooledHasher {
    std::uint64_t operator()(std::uint64_t key) const {
      return net::mix64(key);
    }
  };

  struct FullKeyHasher {
    std::uint64_t operator()(const VmNcKey& key) const {
      return net::hash_combine(net::mix64(key.vni), net::hash_ip(key.vm_ip));
    }
  };

  Config config_;
  ExactTable<std::uint64_t, VmNcAction, PooledHasher> main_;
  /// digest slot -> the full key currently owning it (v6 only); lets erase
  /// decide whether a conflict entry can be promoted.
  std::unordered_map<std::uint64_t, VmNcKey, PooledHasher> owners_;
  /// Full-key conflict table (kept small by the birthday bound).
  std::unordered_map<VmNcKey, VmNcAction, FullKeyHasher> conflicts_;
  std::size_t collision_events_ = 0;
};

}  // namespace sf::tables

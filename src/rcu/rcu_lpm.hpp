// Versioned longest-prefix-match table over the pooled VXLAN key space.
//
// XGW-x86's VXLAN route table. It canonicalizes routes with
// `make_pooled_prefix` / `make_pooled_key` into the label‖VNI‖address
// depth space, resolves by probing distinct depths longest first, and
// stores the (masked key, depth) entries in an RcuExactTable so lookups
// run against a pinned version while the mutator churns. At every seq it
// agrees with the reference trie (tables::LpmTrie) replayed to that seq
// (tests/rcu exercises the differential).
//
// The depth directory is an append-only set of every prefix depth ever
// inserted, published as immutable snapshots behind an atomic pointer.
// Probing a depth with no entries at the pinned seq just misses, so a
// snapshot that runs ahead of the pinned version is harmless; snapshots
// are never reclaimed (≤ 154 possible depths bounds them for a process
// lifetime).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "net/hash.hpp"
#include "net/ip.hpp"
#include "rcu/rcu_exact_table.hpp"
#include "tables/tcam.hpp"

namespace sf::rcu {

template <typename Value>
class RcuLpm {
 public:
  explicit RcuLpm(std::size_t bucket_hint = 4096) : map_(bucket_hint) {
    snapshots_.push_back(std::make_unique<std::vector<unsigned>>());
    depths_.store(snapshots_.back().get(), std::memory_order_release);
  }

  // ---- mutator side -------------------------------------------------

  /// Inserts or replaces, visible from version `seq`. True when new.
  bool insert(net::Vni vni, const net::IpPrefix& prefix, Value value,
              std::uint64_t seq) {
    const unsigned depth = depth_of(prefix);
    note_depth(depth);
    return map_.insert(canonical(vni, prefix, depth), std::move(value), seq);
  }

  /// Removes from version `seq` on. False when absent.
  bool erase(net::Vni vni, const net::IpPrefix& prefix, std::uint64_t seq) {
    const unsigned depth = depth_of(prefix);
    return map_.erase(canonical(vni, prefix, depth), seq);
  }

  std::size_t live_size() const { return map_.live_size(); }

  void collect(std::uint64_t keep_from, EpochManager& epoch) {
    map_.collect(keep_from, epoch);
  }

  std::size_t limbo_size() const { return map_.limbo_size(); }

  // ---- reader side (caller holds an EpochManager pin at `seq`) ------

  /// Longest-prefix match for `ip` within `vni` as of version `seq`.
  const Value* lookup(net::Vni vni, const net::IpAddr& ip,
                      std::uint64_t seq) const {
    const tables::TcamKey key = tables::make_pooled_key(vni, ip);
    const std::vector<unsigned>* depths =
        depths_.load(std::memory_order_acquire);
    for (const unsigned depth : *depths) {
      const Value* hit = map_.lookup(
          DepthKey{key.masked(tables::tcam_mask(depth)), depth}, seq);
      if (hit != nullptr) return hit;
    }
    return nullptr;
  }

 private:
  struct DepthKey {
    tables::TcamKey key;  // canonicalized: masked to depth
    unsigned depth = 0;

    friend bool operator==(const DepthKey&, const DepthKey&) = default;
  };

  struct DepthKeyHasher {
    std::uint64_t operator()(const DepthKey& k) const {
      return net::hash_combine(tables::tcam_hash(k.key), net::mix64(k.depth));
    }
  };

  static unsigned depth_of(const net::IpPrefix& prefix) {
    return 1 + 24 + prefix.pooled_length();
  }

  static DepthKey canonical(net::Vni vni, const net::IpPrefix& prefix,
                            unsigned depth) {
    auto [key, mask] = tables::make_pooled_prefix(vni, prefix);
    (void)mask;
    return DepthKey{key.masked(tables::tcam_mask(depth)), depth};
  }

  /// Records a depth, republishing the descending probe order when new.
  void note_depth(unsigned depth) {
    if (!seen_depths_.insert(depth).second) return;
    auto next = std::make_unique<std::vector<unsigned>>(
        seen_depths_.rbegin(), seen_depths_.rend());
    snapshots_.push_back(std::move(next));
    depths_.store(snapshots_.back().get(), std::memory_order_release);
  }

  RcuExactTable<DepthKey, Value, DepthKeyHasher> map_;
  std::set<unsigned> seen_depths_;
  std::vector<std::unique_ptr<std::vector<unsigned>>> snapshots_;
  std::atomic<const std::vector<unsigned>*> depths_{nullptr};
};

}  // namespace sf::rcu

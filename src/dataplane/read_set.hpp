// sf::dataplane::ReadSetGenerations — which cached verdicts a table op
// invalidates, for the flow caches of both gateways (DESIGN.md §9, §13).
//
// A walk reads state every walk reads (ACL, health, DR), the routes of the
// VNIs in its entry VNI's peer group, and the mappings of its destination
// address. Each has slots: one global slot, 1024 route slots keyed by the
// entry VNI and 1024 mapping slots keyed by a 32-bit key of the
// destination. A slot holds the table version that last bumped it, and a
// walk's stamp is the max of the three slots it reads. Every bump stores a
// version larger than any slot holds, so a stamp moves exactly when a slot
// it reads is bumped; keys sharing a slot only over-invalidate. Memory is
// fixed at ~16 KiB however many VNIs or addresses churn.
//
// One mutator writes the slots; readers may load them from other threads.
// A gateway that publishes versions to pinned readers (XGW-x86) stores a
// version's slots before it publishes the version, so a reader pinned at
// r sees every bump at or before r. A stamp s ≤ r then names the read set
// as of r. A stamp s > r means something the walk reads changed after r:
// that reader must neither replay from nor fill the cache.

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "dataplane/peer_groups.hpp"
#include "dataplane/table_programmer.hpp"
#include "net/hash.hpp"

namespace sf::dataplane {

class ReadSetGenerations {
 public:
  /// The default 32-bit address key: a v4 address itself, a v6 address
  /// folded. A gateway whose mapping table conflates addresses (XGW-H's v6
  /// digests) passes its own key, so conflated addresses share a slot.
  static std::uint32_t address_key(const net::IpAddr& ip) {
    return ip.is_v4() ? ip.v4().value()
                      : static_cast<std::uint32_t>(net::hash_ip(ip));
  }

  /// Records `op`, applied at table `version`. A peer route first joins
  /// its two VNIs' groups. A route op bumps the route slot of every VNI in
  /// the op VNI's group (only walks entering on those can read its
  /// routes); a mapping op bumps the mapping slot of `address_key`, the key
  /// of op.mapping_key.vm_ip.
  void note(const TableOp& op, std::uint32_t address_key,
            std::uint64_t version) {
    if (op.kind == TableOp::Kind::kAddMapping ||
        op.kind == TableOp::Kind::kDelMapping) {
      mappings_[slot(address_key)].store(version, std::memory_order_relaxed);
      return;
    }
    if (op.kind == TableOp::Kind::kAddRoute &&
        op.route_action.scope == tables::RouteScope::kPeer) {
      peer_groups_.join(op.vni, op.route_action.next_hop_vni);
    }
    peer_groups_.for_each_member(op.vni, [&](net::Vni member) {
      routes_[slot(member)].store(version, std::memory_order_relaxed);
    });
  }

  /// Bumps the global slot: every stamp moves.
  void bump_all(std::uint64_t version) {
    global_.store(version, std::memory_order_relaxed);
  }

  /// Stamp of a walk entering on `vni` toward the address keyed
  /// `address_key`.
  std::uint64_t stamp(net::Vni vni, std::uint32_t address_key) const {
    return std::max(
        {global_.load(std::memory_order_relaxed),
         routes_[slot(vni)].load(std::memory_order_relaxed),
         mappings_[slot(address_key)].load(std::memory_order_relaxed)});
  }

 private:
  static constexpr unsigned kSlotBits = 10;
  using Slots = std::array<std::atomic<std::uint64_t>,
                           std::size_t{1} << kSlotBits>;

  /// Multiplicative hash, top bits.
  static std::size_t slot(std::uint32_t value) {
    return static_cast<std::size_t>(
        (std::uint64_t{value} * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits));
  }

  PeerGroups peer_groups_;
  std::atomic<std::uint64_t> global_{0};
  Slots routes_{};
  Slots mappings_{};
};

}  // namespace sf::dataplane

// sf::dataplane::PeerGroups — which VNIs a cached verdict may have read
// routes or mappings of (DESIGN.md §9, §13).
//
// A packet's walk starts in its own VNI and may follow peer routes into
// other VNIs (up to the peer-hop budget). Every peer route joins its two
// VNIs into one group, so a walk entering on VNI `v` only ever reads the
// tables of VNIs in `v`'s group. A table op on a VNI therefore has to
// invalidate the cached verdicts of every VNI in its group, and of no
// other. Groups never split: a removed peer route may still sit under a
// cached verdict until that verdict is invalidated, and re-splitting would
// need to know which routes remain — merging only is always safe.
//
// Mutator-side state: the gateways read it only while applying ops.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

namespace sf::dataplane {

class PeerGroups {
 public:
  /// Records a peer route between `a` and `b`: their groups merge.
  void join(net::Vni a, net::Vni b);

  /// Calls `fn(member)` once for every VNI in `vni`'s group (`vni` itself
  /// included; an unpeered VNI is a group of one).
  template <typename Fn>
  void for_each_member(net::Vni vni, Fn&& fn) const {
    const auto it = group_of_.find(vni);
    if (it == group_of_.end()) {
      fn(vni);
      return;
    }
    for (const net::Vni member : groups_[it->second]) fn(member);
  }

 private:
  /// Group index of every peered VNI.
  std::unordered_map<net::Vni, std::uint32_t> group_of_;
  /// Members by group index; a group merged into another is left empty.
  std::vector<std::vector<net::Vni>> groups_;
};

}  // namespace sf::dataplane

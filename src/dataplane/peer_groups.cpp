#include "dataplane/peer_groups.hpp"

#include <utility>

namespace sf::dataplane {

void PeerGroups::join(net::Vni a, net::Vni b) {
  // Make each side a group of its own first, then merge the smaller group
  // into the larger one (each VNI moves O(log n) times over any join order).
  for (const net::Vni vni : {a, b}) {
    if (group_of_.count(vni) == 0) {
      group_of_.emplace(vni, static_cast<std::uint32_t>(groups_.size()));
      groups_.push_back({vni});
    }
  }
  std::uint32_t into = group_of_[a];
  std::uint32_t from = group_of_[b];
  if (into == from) return;
  if (groups_[into].size() < groups_[from].size()) std::swap(into, from);
  for (const net::Vni member : groups_[from]) {
    group_of_[member] = into;
    groups_[into].push_back(member);
  }
  groups_[from] = {};
}

}  // namespace sf::dataplane

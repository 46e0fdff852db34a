// PeerGroups: VNIs joined by peer routes form groups that only merge.

#include "dataplane/peer_groups.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace sf::dataplane {
namespace {

std::vector<net::Vni> members(const PeerGroups& groups, net::Vni vni) {
  std::vector<net::Vni> out;
  groups.for_each_member(vni, [&](net::Vni member) { out.push_back(member); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PeerGroups, AnUnpeeredVniIsAGroupOfOne) {
  PeerGroups groups;
  EXPECT_EQ(members(groups, 7), std::vector<net::Vni>{7});
}

TEST(PeerGroups, JoinsMergeTransitivelyAndNeverSplit) {
  PeerGroups groups;
  groups.join(1, 2);
  groups.join(3, 4);
  EXPECT_EQ(members(groups, 1), (std::vector<net::Vni>{1, 2}));
  EXPECT_EQ(members(groups, 4), (std::vector<net::Vni>{3, 4}));
  EXPECT_EQ(members(groups, 5), std::vector<net::Vni>{5});

  groups.join(2, 5);  // a bigger group absorbs a new VNI
  groups.join(4, 1);  // two groups merge
  const std::vector<net::Vni> all = {1, 2, 3, 4, 5};
  for (const net::Vni vni : all) {
    EXPECT_EQ(members(groups, vni), all) << vni;
  }

  // Re-joining members of one group, or a VNI with itself, changes nothing.
  groups.join(3, 5);
  groups.join(6, 6);
  EXPECT_EQ(members(groups, 3), all);
  EXPECT_EQ(members(groups, 6), std::vector<net::Vni>{6});
}

}  // namespace
}  // namespace sf::dataplane

// ReadSetGenerations: a walk's stamp is the max of the slots it reads, and
// each op moves exactly the stamps of the walks that may read what it
// changed.

#include "dataplane/read_set.hpp"

#include <gtest/gtest.h>

namespace sf::dataplane {
namespace {

constexpr std::uint32_t kAddr = 0x0a000001;   // 10.0.0.1
constexpr std::uint32_t kOther = 0x0a000002;  // 10.0.0.2

TEST(ReadSetGenerations, OpsMoveOnlyTheStampsOfWhatTheyCover) {
  ReadSetGenerations gens;
  EXPECT_EQ(gens.stamp(1, kAddr), 0u);

  TableOp op;
  op.kind = TableOp::Kind::kAddMapping;
  op.mapping_key = tables::VmNcKey{1, net::IpAddr(net::Ipv4Addr(kAddr))};
  gens.note(op, ReadSetGenerations::address_key(op.mapping_key.vm_ip), 3);
  EXPECT_EQ(gens.stamp(2, kAddr), 3u);  // any VNI, toward the address
  EXPECT_EQ(gens.stamp(1, kOther), 0u);

  op = {};
  op.kind = TableOp::Kind::kDelRoute;
  op.vni = 1;
  gens.note(op, 0, 5);
  EXPECT_EQ(gens.stamp(1, kOther), 5u);
  EXPECT_EQ(gens.stamp(1, kAddr), 5u);  // the max of its slots
  EXPECT_EQ(gens.stamp(2, kOther), 0u);

  // A peer route joins 1 and 2 and moves both; a later route op on 1 too.
  op.kind = TableOp::Kind::kAddRoute;
  op.route_action.scope = tables::RouteScope::kPeer;
  op.route_action.next_hop_vni = 2;
  gens.note(op, 0, 6);
  EXPECT_EQ(gens.stamp(2, kOther), 6u);
  op.route_action.scope = tables::RouteScope::kLocal;
  gens.note(op, 0, 7);
  EXPECT_EQ(gens.stamp(2, kOther), 7u);
  EXPECT_EQ(gens.stamp(9, kOther), 0u);

  gens.bump_all(8);
  EXPECT_EQ(gens.stamp(9, kOther), 8u);
  EXPECT_EQ(gens.stamp(1, kAddr), 8u);
}

TEST(ReadSetGenerations, TheDefaultAddressKeyOfAV4AddressIsTheAddress) {
  EXPECT_EQ(ReadSetGenerations::address_key(
                net::IpAddr(net::Ipv4Addr(kAddr))),
            kAddr);
}

}  // namespace
}  // namespace sf::dataplane

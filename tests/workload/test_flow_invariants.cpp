// Flow-population invariants across generator seeds: every generated flow
// must be *servable* by the tables its topology installs — east-west
// destinations resolve through a Local route of the resolved VNI to the
// recorded NC; Internet destinations are outside every Local prefix.

#include <gtest/gtest.h>

#include "tables/lpm_trie.hpp"
#include "workload/flowgen.hpp"
#include "workload/topology.hpp"

namespace sf::workload {
namespace {

class FlowInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowInvariantTest, EveryFlowIsServable) {
  TopologyConfig topo;
  topo.vpc_count = 60;
  topo.total_vms = 1'200;
  topo.nc_count = 150;
  topo.peerings_per_vpc = 0.5;
  topo.ipv6_fraction = 0.3;
  topo.seed = GetParam();
  const RegionTopology region = generate_topology(topo);

  FlowGenConfig flowgen;
  flowgen.flow_count = 1'500;
  flowgen.seed = GetParam() + 1;
  const std::vector<Flow> flows = generate_flows(region, flowgen);

  // Reference tables built exactly as a gateway would.
  tables::LpmTrie<tables::VxlanRouteAction> routes;
  for (const auto& [key, action] : region.vxlan_routes()) {
    routes.insert(key.vni, key.prefix, action);
  }
  std::unordered_map<std::string, net::Ipv4Addr> nc_of;
  for (const auto& [key, action] : region.vm_mappings()) {
    nc_of[std::to_string(key.vni) + "/" + key.vm_ip.to_string()] =
        action.nc_ip;
  }

  for (const Flow& flow : flows) {
    net::Vni vni = flow.vni;
    auto route = routes.lookup(vni, flow.tuple.dst);
    ASSERT_TRUE(route.has_value()) << flow.tuple.dst.to_string();
    if (route->scope == tables::RouteScope::kPeer) {
      vni = route->next_hop_vni;
      route = routes.lookup(vni, flow.tuple.dst);
      ASSERT_TRUE(route.has_value());
    }
    if (flow.scope == tables::RouteScope::kInternet) {
      EXPECT_EQ(route->scope, tables::RouteScope::kInternet)
          << flow.tuple.dst.to_string();
      continue;
    }
    ASSERT_EQ(route->scope, tables::RouteScope::kLocal)
        << flow.tuple.dst.to_string();
    auto it =
        nc_of.find(std::to_string(vni) + "/" + flow.tuple.dst.to_string());
    ASSERT_NE(it, nc_of.end()) << flow.tuple.dst.to_string();
    EXPECT_EQ(it->second, flow.dst_nc);
  }
}

TEST_P(FlowInvariantTest, WeightsFormADistribution) {
  TopologyConfig topo;
  topo.vpc_count = 30;
  topo.total_vms = 600;
  topo.nc_count = 80;
  topo.seed = GetParam();
  const RegionTopology region = generate_topology(topo);
  FlowGenConfig flowgen;
  flowgen.flow_count = 2'000;
  flowgen.seed = GetParam() + 7;
  const std::vector<Flow> flows = generate_flows(region, flowgen);

  double sum = 0;
  for (const Flow& flow : flows) {
    EXPECT_GE(flow.weight, 0.0);
    sum += flow.weight;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(scope_weight(flows, tables::RouteScope::kInternet),
              flowgen.internet_weight_share, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowInvariantTest,
                         ::testing::Values(71, 72, 73, 74, 75));

}  // namespace
}  // namespace sf::workload

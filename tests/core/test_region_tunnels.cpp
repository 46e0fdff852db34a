// Cross-region / IDC tunnel paths through the region (Table 1's
// "VM-Cross-region" and "VM-IDC" service rows), which the synthetic
// topology does not generate by default.

#include <gtest/gtest.h>

#include "core/sailfish.hpp"

namespace sf::core {
namespace {

net::Vni first_v4_vni(const SailfishSystem& system) {
  for (const auto& vpc : system.topology.vpcs) {
    if (vpc.family == net::IpFamily::kV4) return vpc.vni;
  }
  return system.topology.vpcs.front().vni;
}

SailfishSystem system_with_tunnels() {
  SailfishSystem system = make_system(quickstart_options());
  auto& controller = system.region->controller();
  const net::Vni vni = first_v4_vni(system);
  // Cross-region route (CEN to another region's gateway).
  controller.install_route(
      vni, net::IpPrefix::must_parse("172.30.0.0/16"),
      {tables::RouteScope::kCrossRegion, 0, net::Ipv4Addr(198, 18, 0, 7)});
  // IDC route over the leased line.
  controller.install_route(
      vni, net::IpPrefix::must_parse("172.31.0.0/16"),
      {tables::RouteScope::kIdc, 0, net::Ipv4Addr(198, 19, 0, 9)});
  return system;
}

net::OverlayPacket to(net::Vni vni, const char* dst) {
  net::OverlayPacket pkt;
  pkt.vni = vni;
  pkt.inner.src = net::IpAddr::must_parse("10.0.1.2");
  pkt.inner.dst = net::IpAddr::must_parse(dst);
  pkt.payload_size = 80;
  return pkt;
}

TEST(RegionTunnels, CrossRegionTrafficTakesHardwareTunnel) {
  SailfishSystem system = system_with_tunnels();
  const net::Vni vni = first_v4_vni(system);
  const auto result = system.region->process(to(vni, "172.30.5.5"));
  EXPECT_EQ(dataplane::path_label(result), "hardware-tunnel");
  EXPECT_EQ(result.packet.outer_dst_ip,
            net::IpAddr(net::Ipv4Addr(198, 18, 0, 7)));
}

TEST(RegionTunnels, IdcTrafficTakesHardwareTunnel) {
  SailfishSystem system = system_with_tunnels();
  const net::Vni vni = first_v4_vni(system);
  const auto result = system.region->process(to(vni, "172.31.9.9"));
  EXPECT_EQ(dataplane::path_label(result), "hardware-tunnel");
  EXPECT_EQ(result.packet.outer_dst_ip,
            net::IpAddr(net::Ipv4Addr(198, 19, 0, 9)));
}

TEST(RegionTunnels, TunnelRoutesStayInHardware) {
  // The default table-sharing policy keeps tunnel routes in XGW-H: the
  // x86 path must not be touched (its telemetry stays clean).
  SailfishSystem system = system_with_tunnels();
  const net::Vni vni = first_v4_vni(system);
  const auto packets_in = [&] {
    return system.region->x86_node(0).registry().counter_value(
        "x86.packets_in");
  };
  const auto before = packets_in();
  system.region->process(to(vni, "172.30.5.5"));
  EXPECT_EQ(packets_in(), before);
}

TEST(RegionTunnels, PathTraceShowsTunnelHop) {
  SailfishSystem system = system_with_tunnels();
  const net::Vni vni = first_v4_vni(system);
  const auto trace = system.region->trace(to(vni, "172.30.5.5"));
  EXPECT_EQ(dataplane::path_label(trace.result), "hardware-tunnel");
  bool tunnel_hop = false;
  for (const auto& hop : trace.hops) {
    if (hop.detail.find("tunnel to 198.18.0.7") != std::string::npos) {
      tunnel_hop = true;
    }
  }
  EXPECT_TRUE(tunnel_hop);
}

TEST(RegionTunnels, RemovingTunnelFallsToDefaultRoute) {
  SailfishSystem system = system_with_tunnels();
  auto& controller = system.region->controller();
  const net::Vni vni = first_v4_vni(system);
  ASSERT_TRUE(dataplane::succeeded(controller.remove_route(
      vni, net::IpPrefix::must_parse("172.30.0.0/16"))));
  // Now covered by the VPC's default Internet route -> software SNAT.
  const auto result = system.region->process(to(vni, "172.30.5.5"), 1.0);
  EXPECT_EQ(dataplane::path_label(result), "software-snat");
}

}  // namespace
}  // namespace sf::core

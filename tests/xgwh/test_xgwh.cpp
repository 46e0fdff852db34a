#include "xgwh/xgwh.hpp"

#include <gtest/gtest.h>

namespace sf::xgwh {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;
using tables::VmNcKey;
using tables::VmNcAction;
using tables::VxlanRouteAction;

XgwH::Config folded_config() { return XgwH::Config{}; }

XgwH::Config unfolded_config() {
  XgwH::Config config;
  config.compression = asic::CompressionConfig::none();
  return config;
}

// Installs the Fig. 2 example: VPC A (vni 10) with two VMs, VPC B (vni 11)
// peered with A.
void install_fig2(XgwH& gw) {
  gw.install_route(10, IpPrefix::must_parse("192.168.10.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  gw.install_route(10, IpPrefix::must_parse("192.168.30.0/24"),
                   VxlanRouteAction{RouteScope::kPeer, 11, {}});
  gw.install_route(11, IpPrefix::must_parse("192.168.30.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  gw.install_route(11, IpPrefix::must_parse("192.168.10.0/24"),
                   VxlanRouteAction{RouteScope::kPeer, 10, {}});
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 11)});
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.3")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 12)});
  gw.install_mapping(VmNcKey{11, IpAddr::must_parse("192.168.30.5")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 15)});
}

net::OverlayPacket packet_to(net::Vni vni, const char* src,
                             const char* dst) {
  net::OverlayPacket pkt;
  pkt.vni = vni;
  pkt.inner.src = IpAddr::must_parse(src);
  pkt.inner.dst = IpAddr::must_parse(dst);
  pkt.inner.proto = 6;
  pkt.inner.src_port = 40000;
  pkt.inner.dst_port = 80;
  pkt.payload_size = 200;
  return pkt;
}

TEST(XgwH, SameVpcForwarding) {
  // Fig. 2 left: VM-VM, same VPC, different vSwitches.
  XgwH gw(folded_config());
  install_fig2(gw);
  const auto result =
      gw.forward(packet_to(10, "192.168.10.2", "192.168.10.3"));
  EXPECT_EQ(result.action, dataplane::Action::kForwardToNc);
  EXPECT_EQ(result.packet.outer_dst_ip,
            IpAddr(net::Ipv4Addr(10, 1, 1, 12)));
  EXPECT_EQ(result.packet.outer_src_ip,
            IpAddr(gw.config().device_ip));
}

TEST(XgwH, CrossVpcPeerForwarding) {
  // Fig. 2 right: the packet re-resolves through VPC B's table.
  XgwH gw(folded_config());
  install_fig2(gw);
  const auto result =
      gw.forward(packet_to(10, "192.168.10.2", "192.168.30.5"));
  EXPECT_EQ(result.action, dataplane::Action::kForwardToNc);
  EXPECT_EQ(result.packet.outer_dst_ip,
            IpAddr(net::Ipv4Addr(10, 1, 1, 15)));
}

TEST(XgwH, UnfoldedModeForwardsIdentically) {
  XgwH folded(folded_config());
  XgwH unfolded(unfolded_config());
  install_fig2(folded);
  install_fig2(unfolded);
  const auto packet = packet_to(10, "192.168.10.2", "192.168.30.5");
  const auto a = folded.forward(packet);
  const auto b = unfolded.forward(packet);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.packet.outer_dst_ip, b.packet.outer_dst_ip);
}

TEST(XgwH, FoldingDoublesPassesAndLatency) {
  XgwH folded(folded_config());
  XgwH unfolded(unfolded_config());
  install_fig2(folded);
  install_fig2(unfolded);
  const auto packet = packet_to(10, "192.168.10.2", "192.168.10.3");
  const auto a = folded.forward(packet);
  const auto b = unfolded.forward(packet);
  EXPECT_EQ(a.passes, 2u);
  EXPECT_EQ(b.passes, 1u);
  EXPECT_GT(a.latency_us, b.latency_us);
  // The folded latency lands in the paper's ~2.2us band.
  EXPECT_NEAR(a.latency_us, 2.2, 0.15);
}

TEST(XgwH, FoldingHalvesThroughputEnvelope) {
  XgwH folded(folded_config());
  XgwH unfolded(unfolded_config());
  EXPECT_DOUBLE_EQ(folded.max_throughput_bps(),
                   unfolded.max_throughput_bps() / 2);
  EXPECT_NEAR(folded.max_throughput_bps(), 3.2e12, 1e9);   // paper: 3.2T
  EXPECT_NEAR(folded.max_packet_rate_pps(), 1.8e9, 1e6);   // paper: 1.8G
}

TEST(XgwH, TunnelScopesRewriteToRemoteEndpoint) {
  XgwH gw(folded_config());
  gw.install_route(
      20, IpPrefix::must_parse("172.30.0.0/16"),
      VxlanRouteAction{RouteScope::kCrossRegion, 0,
                       net::Ipv4Addr(198, 18, 0, 7)});
  const auto result = gw.forward(packet_to(20, "10.0.0.1", "172.30.1.1"));
  EXPECT_EQ(result.action, dataplane::Action::kForwardTunnel);
  EXPECT_EQ(result.packet.outer_dst_ip,
            IpAddr(net::Ipv4Addr(198, 18, 0, 7)));
}

TEST(XgwH, InternetScopeFallsBackToX86) {
  XgwH gw(folded_config());
  gw.install_route(30, IpPrefix::must_parse("0.0.0.0/0"),
                   VxlanRouteAction{RouteScope::kInternet, 0, {}});
  const auto result = gw.forward(packet_to(30, "10.0.0.1", "93.184.216.34"));
  EXPECT_EQ(result.action, dataplane::Action::kFallbackToX86);
  EXPECT_EQ(result.packet.outer_dst_ip,
            IpAddr(gw.config().x86_next_hop));
}

TEST(XgwH, RouteMissFallsBackInsteadOfDropping) {
  XgwH gw(folded_config());
  const auto result = gw.forward(packet_to(99, "10.0.0.1", "10.0.0.2"));
  EXPECT_EQ(result.action, dataplane::Action::kFallbackToX86);
}

TEST(XgwH, MappingMissFallsBack) {
  XgwH gw(folded_config());
  gw.install_route(10, IpPrefix::must_parse("192.168.10.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  const auto result =
      gw.forward(packet_to(10, "192.168.10.2", "192.168.10.3"));
  EXPECT_EQ(result.action, dataplane::Action::kFallbackToX86);
}

TEST(XgwH, PeerLoopIsDropped) {
  XgwH gw(folded_config());
  gw.install_route(1, IpPrefix::must_parse("10.0.0.0/8"),
                   VxlanRouteAction{RouteScope::kPeer, 2, {}});
  gw.install_route(2, IpPrefix::must_parse("10.0.0.0/8"),
                   VxlanRouteAction{RouteScope::kPeer, 1, {}});
  const auto result = gw.forward(packet_to(1, "10.0.0.1", "10.0.0.2"));
  EXPECT_EQ(result.action, dataplane::Action::kDrop);
  EXPECT_EQ(result.drop_reason, dataplane::DropReason::kPeerResolutionLoop);
}

TEST(XgwH, AclDeniesTraffic) {
  XgwH gw(folded_config());
  install_fig2(gw);
  tables::AclRule rule;
  rule.vni = 10;
  rule.dst_port = 80;
  rule.verdict = tables::AclVerdict::kDeny;
  gw.add_acl_rule(rule);
  const auto result =
      gw.forward(packet_to(10, "192.168.10.2", "192.168.10.3"));
  EXPECT_EQ(result.action, dataplane::Action::kDrop);
  EXPECT_EQ(result.drop_reason, dataplane::DropReason::kAclDeny);
}

TEST(XgwH, FallbackRateLimiterDropsExcess) {
  XgwH::Config config = folded_config();
  config.fallback_rate_bps = 8000;     // 1 KB/s
  config.fallback_burst_bytes = 400;   // roughly one packet's worth
  XgwH gw(config);
  gw.install_route(30, IpPrefix::must_parse("0.0.0.0/0"),
                   VxlanRouteAction{RouteScope::kInternet, 0, {}});
  const auto packet = packet_to(30, "10.0.0.1", "93.184.216.34");
  const auto first = gw.forward(packet, /*now=*/0);
  const auto second = gw.forward(packet, /*now=*/0);
  EXPECT_EQ(first.action, dataplane::Action::kFallbackToX86);
  EXPECT_EQ(second.action, dataplane::Action::kDrop);
  EXPECT_EQ(gw.registry().counter_value("xgwh.fallback_rate_limited"), 1u);
  // 8000 bps refills 1000 B/s: the bucket (400 B less one packet) holds a
  // packet again only after `refill_s`.
  const double wire = static_cast<double>(packet.wire_size());
  const double refill_s = (2 * wire - 400) / 1000;
  ASSERT_GT(refill_s, 0);
  EXPECT_EQ(gw.forward(packet, 0.9 * refill_s).action,
            dataplane::Action::kDrop);
  EXPECT_EQ(gw.forward(packet, 1.1 * refill_s).action,
            dataplane::Action::kFallbackToX86);
  EXPECT_EQ(gw.registry().counter_value("xgwh.fallback_rate_limited"), 2u);
}

TEST(XgwH, ShardPipesSplitByVniHash) {
  XgwH gw(folded_config());
  // Find two VNIs landing on opposite shards under the split hash.
  net::Vni vni0 = 0;
  net::Vni vni1 = 0;
  for (net::Vni v = 40;; ++v) {
    if (XgwH::shard_of_vni(v) == 0 && vni0 == 0) vni0 = v;
    if (XgwH::shard_of_vni(v) == 1 && vni1 == 0) vni1 = v;
    if (vni0 != 0 && vni1 != 0) break;
  }
  for (net::Vni v : {vni0, vni1}) {
    gw.install_route(v, IpPrefix::must_parse("10.0.0.0/8"),
                     VxlanRouteAction{RouteScope::kLocal, 0, {}});
    gw.install_mapping(VmNcKey{v, IpAddr::must_parse("10.0.0.2")},
                       VmNcAction{net::Ipv4Addr(10, 1, 1, 1)});
  }
  const auto shard0 = gw.forward(packet_to(vni0, "10.0.0.1", "10.0.0.2"));
  const auto shard1 = gw.forward(packet_to(vni1, "10.0.0.1", "10.0.0.2"));
  EXPECT_EQ(shard0.shard_pipe, 1u);
  EXPECT_EQ(shard1.shard_pipe, 3u);
  EXPECT_GT(gw.shard_pipe_bytes()[1], 0u);
  EXPECT_GT(gw.shard_pipe_bytes()[3], 0u);
}

TEST(XgwH, TableCountsAndConsistencyHelpers) {
  XgwH gw(folded_config());
  install_fig2(gw);
  EXPECT_EQ(gw.route_count(), 4u);
  EXPECT_EQ(gw.mapping_count(), 3u);
  EXPECT_TRUE(gw.has_route(10, IpPrefix::must_parse("192.168.10.0/24")));
  EXPECT_FALSE(gw.has_route(10, IpPrefix::must_parse("192.168.99.0/24")));
  EXPECT_TRUE(
      gw.has_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")}));
  EXPECT_EQ(gw.remove_route(10, IpPrefix::must_parse("192.168.10.0/24")),
            dataplane::TableOpStatus::kOk);
  EXPECT_EQ(gw.route_count(), 3u);
  EXPECT_EQ(gw.remove_mapping(
                VmNcKey{10, IpAddr::must_parse("192.168.10.2")}),
            dataplane::TableOpStatus::kOk);
  EXPECT_EQ(gw.mapping_count(), 2u);
}

TEST(XgwH, OccupancyReportTracksLiveTables) {
  XgwH gw(folded_config());
  const auto empty = gw.occupancy_report();
  install_fig2(gw);
  const auto loaded = gw.occupancy_report();
  EXPECT_GT(loaded.sram_path_worst, empty.sram_path_worst);
  EXPECT_TRUE(loaded.feasible);
  const auto workload = gw.live_workload();
  EXPECT_EQ(workload.vxlan_routes_v4, 4u);
  EXPECT_EQ(workload.vm_maps_v4, 3u);
}

TEST(XgwH, RejectsNonFourPipeChip) {
  XgwH::Config config;
  config.chip.pipelines = 2;
  EXPECT_THROW(XgwH{config}, std::invalid_argument);
}

}  // namespace
}  // namespace sf::xgwh

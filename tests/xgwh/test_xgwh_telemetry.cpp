#include <gtest/gtest.h>

#include "xgwh/xgwh.hpp"

namespace sf::xgwh {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;

net::OverlayPacket pkt(net::Vni vni, const char* dst) {
  net::OverlayPacket p;
  p.vni = vni;
  p.inner.src = IpAddr::must_parse("10.0.0.1");
  p.inner.dst = IpAddr::must_parse(dst);
  p.inner.proto = 6;
  p.payload_size = 64;
  return p;
}

TEST(XgwHTelemetry, CountersTrackOutcomes) {
  XgwH gw{XgwH::Config{}};
  gw.install_route(2, IpPrefix::must_parse("10.0.0.0/8"),
                   {RouteScope::kLocal, 0, {}});
  gw.install_mapping({2, IpAddr::must_parse("10.0.0.9")},
                     {net::Ipv4Addr(172, 16, 0, 1)});
  gw.install_route(3, IpPrefix::must_parse("0.0.0.0/0"),
                   {RouteScope::kInternet, 0, {}});

  gw.forward(pkt(2, "10.0.0.9"));          // forwarded
  gw.forward(pkt(3, "93.184.216.34"), 1);  // fallback
  gw.forward(pkt(9, "10.0.0.9"), 1);       // route miss -> fallback

  const auto& reg = gw.registry();
  EXPECT_EQ(reg.counter_value("xgwh.packets_in"), 3u);
  EXPECT_EQ(reg.counter_value("xgwh.packets_forwarded"), 1u);
  EXPECT_EQ(reg.counter_value("xgwh.packets_fallback"), 2u);
  EXPECT_EQ(reg.counter_value("xgwh.packets_dropped"), 0u);
  EXPECT_GT(reg.counter_value("xgwh.bytes_in"), 0u);
}

TEST(XgwHTelemetry, RegistryCountsOutcomesTablesAndPipes) {
  XgwH gw{XgwH::Config{}};
  gw.install_route(2, IpPrefix::must_parse("10.0.0.0/8"),
                   {RouteScope::kLocal, 0, {}});
  gw.install_mapping({2, IpAddr::must_parse("10.0.0.9")},
                     {net::Ipv4Addr(172, 16, 0, 1)});

  gw.forward(pkt(2, "10.0.0.9"));     // forwarded (route + vm hit)
  gw.forward(pkt(9, "10.0.0.9"), 1);  // route miss -> fallback

  const auto& reg = gw.registry();
  EXPECT_EQ(reg.counter_value("xgwh.packets_in"), 2u);
  EXPECT_EQ(reg.counter_value("xgwh.packets_forwarded"), 1u);
  EXPECT_EQ(reg.counter_value("xgwh.packets_fallback"), 1u);
  // Both packets carry the same headers and payload.
  EXPECT_EQ(reg.counter_value("xgwh.bytes_in"),
            2u * pkt(2, "10.0.0.9").wire_size());

  // Per-table hit/miss counters.
  EXPECT_GT(reg.counter_value("xgwh.table.route.hit"), 0u);
  EXPECT_GT(reg.counter_value("xgwh.table.route.miss"), 0u);
  EXPECT_GT(reg.counter_value("xgwh.table.vm_nc.hit"), 0u);

  // The asic walker feeds the same registry: both packets entered a
  // pipeline, and the latency histogram saw both.
  EXPECT_EQ(reg.counter_value("asic.packets"), 2u);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.histogram("xgwh.latency_us"), nullptr);
  EXPECT_EQ(snap.histogram("xgwh.latency_us")->count, 2u);

  // Loopback pipe bytes mirror the shard_pipe_bytes() array.
  EXPECT_EQ(reg.counter_value("xgwh.pipe1.loopback_bytes"),
            gw.shard_pipe_bytes()[1]);
  EXPECT_EQ(reg.counter_value("xgwh.pipe3.loopback_bytes"),
            gw.shard_pipe_bytes()[3]);
}

TEST(XgwHTelemetry, AclRangeRowsReachOccupancyModel) {
  XgwH gw{XgwH::Config{}};
  tables::AclRule ranged;
  ranged.dst_port_range = {{1, 65534}};  // 30 TCAM rows
  gw.add_acl_rule(ranged);
  tables::AclRule exact;
  exact.dst_port = 443;
  gw.add_acl_rule(exact);
  // live_workload() must charge the *expanded* row count.
  EXPECT_EQ(gw.live_workload().acl_rules, 31u);
}

TEST(XgwHTelemetry, InstallIsIdempotentOnCounts) {
  XgwH gw{XgwH::Config{}};
  const IpPrefix prefix = IpPrefix::must_parse("10.0.0.0/8");
  EXPECT_EQ(gw.install_route(5, prefix, {RouteScope::kLocal, 0, {}}),
            dataplane::TableOpStatus::kOk);
  EXPECT_EQ(gw.install_route(5, prefix, {RouteScope::kLocal, 0, {}}),
            dataplane::TableOpStatus::kDuplicate);
  EXPECT_EQ(gw.route_count(), 1u);
  EXPECT_EQ(gw.live_workload().vxlan_routes_v4, 1u);

  const tables::VmNcKey key{5, IpAddr::must_parse("10.0.0.2")};
  EXPECT_EQ(gw.install_mapping(key, {net::Ipv4Addr(1)}),
            dataplane::TableOpStatus::kOk);
  // Replacing in place is an idempotent success, reported as kDuplicate.
  EXPECT_TRUE(dataplane::succeeded(gw.install_mapping(key, {net::Ipv4Addr(2)})));
  EXPECT_EQ(gw.mapping_count(), 1u);
  EXPECT_EQ(gw.live_workload().vm_maps_v4, 1u);
}

TEST(XgwHTelemetry, ProcessIsDeterministic) {
  XgwH a{XgwH::Config{}};
  XgwH b{XgwH::Config{}};
  for (XgwH* gw : {&a, &b}) {
    gw->install_route(2, IpPrefix::must_parse("10.0.0.0/8"),
                      {RouteScope::kLocal, 0, {}});
    gw->install_mapping({2, IpAddr::must_parse("10.0.0.9")},
                        {net::Ipv4Addr(172, 16, 0, 1)});
  }
  const auto ra = a.forward(pkt(2, "10.0.0.9"));
  const auto rb = b.forward(pkt(2, "10.0.0.9"));
  EXPECT_EQ(ra.action, rb.action);
  EXPECT_EQ(ra.latency_us, rb.latency_us);
  EXPECT_EQ(ra.egress_pipe, rb.egress_pipe);
}

TEST(XgwHTelemetry, LatencyGrowsWithPayload) {
  XgwH gw{XgwH::Config{}};
  gw.install_route(2, IpPrefix::must_parse("10.0.0.0/8"),
                   {RouteScope::kLocal, 0, {}});
  gw.install_mapping({2, IpAddr::must_parse("10.0.0.9")},
                     {net::Ipv4Addr(172, 16, 0, 1)});
  auto small = pkt(2, "10.0.0.9");
  small.payload_size = 32;
  auto large = pkt(2, "10.0.0.9");
  large.payload_size = 1400;
  EXPECT_LT(gw.forward(small).latency_us, gw.forward(large).latency_us);
}

}  // namespace
}  // namespace sf::xgwh

#include "core/region.hpp"

#include <gtest/gtest.h>

#include "core/sailfish.hpp"

namespace sf::core {
namespace {

using net::IpAddr;

SailfishSystem small_system() {
  SailfishOptions options = quickstart_options();
  options.flows.flow_count = 800;
  return make_system(options);
}

net::OverlayPacket packet_for_flow(const workload::Flow& flow) {
  net::OverlayPacket pkt;
  pkt.vni = flow.vni;
  pkt.inner = flow.tuple;
  pkt.payload_size = 200;
  return pkt;
}

TEST(SailfishRegion, InstallsWholeTopology) {
  const SailfishSystem system = small_system();
  EXPECT_EQ(system.admitted_vpcs, system.topology.vpcs.size());
  EXPECT_GE(system.region->controller().cluster_count(), 1u);
  // Software mirror received everything.
  EXPECT_EQ(system.region->x86_node(0).route_count(),
            system.topology.total_routes());
  EXPECT_EQ(system.region->x86_node(0).mapping_count(),
            system.topology.total_vms());
}

TEST(SailfishRegion, EastWestFlowsForwardInHardware) {
  SailfishSystem system = small_system();
  std::size_t checked = 0;
  for (const workload::Flow& flow : system.flows) {
    if (flow.scope == tables::RouteScope::kInternet) continue;
    const auto result = system.region->process(packet_for_flow(flow));
    ASSERT_EQ(dataplane::path_label(result), "hardware-forwarded")
        << dataplane::to_string(result.drop_reason);
    EXPECT_EQ(result.packet.outer_dst_ip, IpAddr(flow.dst_nc));
    if (++checked > 60) break;
  }
  EXPECT_GT(checked, 10u);
}

TEST(SailfishRegion, InternetFlowsTakeSoftwareSnatPath) {
  SailfishSystem system = small_system();
  std::size_t checked = 0;
  for (const workload::Flow& flow : system.flows) {
    if (flow.scope != tables::RouteScope::kInternet) continue;
    const auto result = system.region->process(packet_for_flow(flow), 1.0);
    ASSERT_EQ(dataplane::path_label(result), "software-snat")
        << dataplane::to_string(result.drop_reason);
    // SNAT decapsulated the packet and rewrote the source.
    EXPECT_EQ(result.packet.vni, 0u);
    if (++checked > 20) break;
  }
  EXPECT_GT(checked, 2u);
}

TEST(SailfishRegion, SoftwarePathIsSlowerThanHardware) {
  SailfishSystem system = small_system();
  double hw_latency = 0;
  double sw_latency = 0;
  for (const workload::Flow& flow : system.flows) {
    const auto result = system.region->process(packet_for_flow(flow), 2.0);
    if (result.action == dataplane::Action::kForwardToNc &&
        !result.software_path) {
      hw_latency = result.latency_us;
    } else if (result.action == dataplane::Action::kSnatToInternet) {
      sw_latency = result.latency_us;
    }
    if (hw_latency > 0 && sw_latency > 0) break;
  }
  // Fig. 18c: ~2us hardware vs ~40us software (the software path also
  // pays the hardware pass that steered it).
  EXPECT_NEAR(hw_latency, 2.2, 0.2);
  EXPECT_GT(sw_latency, 35.0);
}

TEST(SailfishRegion, UnknownVniDrops) {
  SailfishSystem system = small_system();
  net::OverlayPacket pkt;
  pkt.vni = 0xfffff;
  pkt.inner.src = IpAddr::must_parse("10.0.0.1");
  pkt.inner.dst = IpAddr::must_parse("10.0.0.2");
  pkt.payload_size = 64;
  const auto result = system.region->process(pkt);
  EXPECT_TRUE(result.dropped());
  EXPECT_EQ(result.drop_reason, dataplane::DropReason::kUnknownVni);
}

TEST(SailfishRegion, IntervalReportSplitsHardwareAndSoftware) {
  SailfishSystem system = small_system();
  // Quickstart scale: one small cluster, so offer a load it can carry.
  const auto report = system.region->simulate_interval(
      system.flows, /*total_bps=*/1.5e12, /*jitter_key=*/1);
  EXPECT_NEAR(report.offered_bps, 1.5e12, 1);
  EXPECT_GT(report.offered_pps, 0);
  // Fallback ratio matches the generator's configured share (~0.15 per
  // mille), the Fig. 22 quantity.
  EXPECT_NEAR(report.fallback_ratio, 0.00015, 0.00002);
  // Drop rate sits at the hardware loss floor (Fig. 19 band).
  EXPECT_GT(report.drop_rate, 1e-12);
  EXPECT_LT(report.drop_rate, 1e-9);
  // The software fleet is far from overload on a thin fallback stream.
  EXPECT_LT(report.x86_max_core_utilization, 1.0);
}

TEST(SailfishRegion, PipeBalanceIsEven) {
  SailfishSystem system = small_system();
  const auto report =
      system.region->simulate_interval(system.flows, 1.5e12, 2);
  const double pipe1 = report.shard_pipe_bps[1];
  const double pipe3 = report.shard_pipe_bps[3];
  EXPECT_GT(pipe1, 0);
  EXPECT_GT(pipe3, 0);
  // Figs. 20/21: an even split between the loopback pipes. At this small
  // sample (500 Zipf flows) the split is approximate; the Fig. 20/21
  // bench runs at region scale where it tightens.
  const double imbalance =
      std::abs(pipe1 - pipe3) / (pipe1 + pipe3);
  EXPECT_LT(imbalance, 0.5);
  // Pipes 0/2 are entry/exit pipes, not shard pipes.
  EXPECT_EQ(report.shard_pipe_bps[0], 0);
  EXPECT_EQ(report.shard_pipe_bps[2], 0);
}

TEST(SailfishRegion, JitterKeyVariesLossWithinBand) {
  SailfishSystem system = small_system();
  const auto a =
      system.region->simulate_interval(system.flows, 1.5e12, 1);
  const auto b =
      system.region->simulate_interval(system.flows, 1.5e12, 2);
  EXPECT_NE(a.drop_rate, b.drop_rate);
  EXPECT_LT(std::max(a.drop_rate, b.drop_rate), 1e-9);
}

TEST(SailfishRegion, RejectsZeroX86Nodes) {
  SailfishRegion::Config config;
  config.x86_nodes = 0;
  EXPECT_THROW(SailfishRegion{config}, std::invalid_argument);
}

TEST(SailfishRegion, PlacementGaugesAreOptIn) {
  // Default region: no placement engine, no placement gauges.
  SailfishRegion::Config config;
  {
    SailfishRegion region(config);
    region.publish_pressure_gauges(1.0);
    EXPECT_FALSE(
        region.registry().has_gauge("region.placement.pipe0.sram_words"));
  }

  config.controller.placement_enabled = true;
  SailfishRegion region(config);
  workload::VpcRecord vpc;
  vpc.vni = 77;
  vpc.family = net::IpFamily::kV4;
  vpc.routes.push_back(workload::RouteRecord{
      net::Ipv4Prefix(net::Ipv4Addr(10, 77, 0, 0), 24),
      tables::VxlanRouteAction{tables::RouteScope::kLocal, 0, {}}});
  ASSERT_TRUE(region.controller().add_vpc(vpc));
  region.publish_pressure_gauges(1.0);
  const auto& registry = region.registry();
  EXPECT_TRUE(registry.has_gauge("region.placement.pipe0.sram_words"));
  EXPECT_TRUE(registry.has_gauge("region.placement.pipe0.tcam_slices"));
  double sram_total = 0;
  for (unsigned p = 0; p < 4; ++p) {
    sram_total += registry.gauge_value("region.placement.pipe" +
                                       std::to_string(p) + ".sram_words");
  }
  EXPECT_GT(sram_total, 0.0);
  EXPECT_EQ(registry.gauge_value("region.placement.feasible"), 1.0);
  EXPECT_GE(registry.gauge_value("region.placement.delta_applies") +
                registry.gauge_value("region.placement.full_recomputes"),
            1.0);
}

// Each optional tier is built if and only if its own Config field asks for
// it.
TEST(SailfishRegion, EachOptionalTierFollowsItsConfigAlone) {
  SailfishRegion::Config config;
  {
    SailfishRegion bare(config);
    EXPECT_EQ(bare.tenant_guard(), nullptr);
    EXPECT_EQ(bare.punt_queue(), nullptr);
    EXPECT_EQ(bare.dpu_node_count(), 0u);
    EXPECT_EQ(bare.tier_placer(), nullptr);
    EXPECT_EQ(bare.controller().breaker(), nullptr);
    EXPECT_FALSE(bare.registry().has_counter("region.guard.admitted"));
    EXPECT_FALSE(bare.registry().has_counter("region.dpu.served"));
  }

  config.enable_guard = true;
  config.enable_punt_path = true;
  config.enable_dpu = true;
  config.dpu_nodes = 3;
  config.controller.breaker.trip_after = 2;
  SailfishRegion full(config);
  EXPECT_NE(full.tenant_guard(), nullptr);
  EXPECT_NE(full.punt_queue(), nullptr);
  EXPECT_EQ(full.dpu_node_count(), 3u);
  EXPECT_NE(full.tier_placer(), nullptr);
  EXPECT_NE(full.controller().breaker(), nullptr);
  EXPECT_TRUE(full.registry().has_counter("region.guard.admitted"));
  EXPECT_TRUE(full.registry().has_counter("region.guard.punted"));
  EXPECT_TRUE(full.registry().has_counter("region.dpu.served"));
}

TEST(Sailfish, VersionString) {
  EXPECT_NE(std::string(version()).find("sailfish"), std::string::npos);
}

}  // namespace
}  // namespace sf::core

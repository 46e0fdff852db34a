// End-to-end checks that the telemetry subsystem is actually wired into
// every layer: packets flowing through the region must show up in the
// gateways' registries, the controller's journal records provisioning
// and failovers, traffic share follows the VNI split, and path traces
// carry counter context.

#include <gtest/gtest.h>

#include "core/region.hpp"
#include "core/sailfish.hpp"
#include "telemetry/registry.hpp"

namespace sf::core {
namespace {

SailfishSystem small_system() {
  SailfishOptions options = quickstart_options();
  options.flows.flow_count = 400;
  return make_system(options);
}

net::OverlayPacket packet_for_flow(const workload::Flow& flow) {
  net::OverlayPacket pkt;
  pkt.vni = flow.vni;
  pkt.inner = flow.tuple;
  pkt.payload_size = 200;
  return pkt;
}

TEST(TelemetryWiring, ProcessedPacketsLandInEveryLayersRegistry) {
  SailfishSystem system = small_system();
  std::size_t sent = 0;
  for (const workload::Flow& flow : system.flows) {
    system.region->process(packet_for_flow(flow), 1.0);
    if (++sent >= 100) break;
  }

  const auto& region_reg = system.region->registry();
  EXPECT_EQ(region_reg.counter_value("region.packets"), sent);
  EXPECT_GT(region_reg.counter_value("region.hw_forwarded"), 0u);

  const auto& controller = system.region->controller();
  EXPECT_EQ(controller.registry().counter_value("controller.packets_steered"),
            sent);
  EXPECT_GT(
      controller.registry().counter_value("controller.routes_added"), 0u);

  // Device-level: the sum of per-device packets equals what the region
  // steered into hardware; the asic walker counted pipeline passes too.
  std::uint64_t device_packets = 0;
  std::uint64_t ingress_pipe_packets = 0;
  for (std::size_t c = 0; c < controller.cluster_count(); ++c) {
    for (std::size_t d = 0; d < controller.cluster(c).device_count(); ++d) {
      const auto& reg = controller.cluster(c).device(d).registry();
      device_packets += reg.counter_value("xgwh.packets_in");
      ingress_pipe_packets += reg.counter_value("asic.pipe0.ingress.packets");
      ingress_pipe_packets += reg.counter_value("asic.pipe2.ingress.packets");
    }
  }
  EXPECT_EQ(device_packets, sent);
  // Folded mode: every packet entered through an entry pipe (0 or 2).
  EXPECT_EQ(ingress_pipe_packets, sent);

  // Route lookups hit (the topology was installed).
  const telemetry::Snapshot fleet = system.region->telemetry_snapshot();
  std::uint64_t route_hits = 0;
  for (const auto& [name, value] : fleet.counters) {
    if (name.find("xgwh.table.route.hit") != std::string::npos) {
      route_hits += value;
    }
  }
  EXPECT_GT(route_hits, 0u);
}

TEST(TelemetryWiring, SoftwarePathCountsSnatSessions) {
  SailfishSystem system = small_system();
  std::size_t internet = 0;
  for (const workload::Flow& flow : system.flows) {
    if (flow.scope != tables::RouteScope::kInternet) continue;
    system.region->process(packet_for_flow(flow), 1.0);
    if (++internet >= 10) break;
  }
  ASSERT_GT(internet, 0u);

  std::uint64_t snat = 0;
  std::uint64_t x86_in = 0;
  for (std::size_t n = 0; n < system.region->x86_node_count(); ++n) {
    const auto& reg = system.region->x86_node(n).registry();
    snat += reg.counter_value("x86.packets_snat");
    x86_in += reg.counter_value("x86.packets_in");
  }
  EXPECT_EQ(snat, internet);
  EXPECT_EQ(x86_in, internet);
  EXPECT_EQ(system.region->registry().counter_value("region.sw_snat"),
            internet);
}

TEST(TelemetryWiring, ClusterTrafficShareFollowsTheVniSplit) {
  SailfishSystem system = small_system();
  const auto& controller = system.region->controller();

  const auto before = controller.cluster_traffic_share();
  for (double share : before) EXPECT_EQ(share, 0.0);

  std::size_t sent = 0;
  for (const workload::Flow& flow : system.flows) {
    system.region->process(packet_for_flow(flow), 1.0);
    if (++sent >= 200) break;
  }

  const auto share = controller.cluster_traffic_share();
  ASSERT_EQ(share.size(), controller.cluster_count());
  double total = 0;
  for (double s : share) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(TelemetryWiring, IntervalSimulationAccumulatesRateSums) {
  SailfishSystem system = small_system();
  const double total_bps = 1e12;
  const auto report =
      system.region->simulate_interval(system.flows, total_bps, 1);

  const auto& reg = system.region->registry();
  EXPECT_EQ(reg.counter_value("region.intervals"), 1u);
  EXPECT_EQ(reg.counter_value("region.offered_bps_sum"),
            static_cast<std::uint64_t>(report.offered_bps));
  EXPECT_EQ(reg.counter_value("region.fallback_bps_sum"),
            static_cast<std::uint64_t>(report.fallback_bps));
  EXPECT_EQ(reg.counter_value("region.pipe1_bps_sum"),
            static_cast<std::uint64_t>(report.shard_pipe_bps[1]));
  // Micro-pps scaling keeps the tiny loss-floor drop rate visible.
  EXPECT_GT(reg.counter_value("region.dropped_upps_sum"), 0u);
}

TEST(TelemetryWiring, JournalRecordsProvisioningAndFailover) {
  SailfishSystem system = small_system();
  auto& controller = system.region->controller();

  const auto provisioning = controller.journal().events("provisioning");
  EXPECT_EQ(provisioning.size(),
            controller.registry().counter_value("controller.clusters_opened"));

  system.region->disaster_recovery().on_device_failure(0, 0, 5.0);
  const auto failovers = controller.journal().events("failover");
  ASSERT_FALSE(failovers.empty());
  EXPECT_NE(failovers.front().message.find("device 0"), std::string::npos);
  EXPECT_DOUBLE_EQ(failovers.front().time, 5.0);
}

TEST(TelemetryWiring, PathTraceAttachesCounterContext) {
  SailfishSystem system = small_system();
  // Warm the counters so the trace shows non-trivial context.
  std::size_t sent = 0;
  for (const workload::Flow& flow : system.flows) {
    system.region->process(packet_for_flow(flow), 1.0);
    if (++sent >= 20) break;
  }

  const auto trace =
      system.region->trace(packet_for_flow(system.flows.front()), 2.0);
  bool found = false;
  for (const auto& hop : trace.hops) {
    if (hop.where != "xgw-h") continue;
    found = true;
    ASSERT_FALSE(hop.counters.empty());
    bool has_packets_in = false;
    for (const auto& [name, value] : hop.counters) {
      if (name == "xgwh.packets_in") {
        has_packets_in = true;
        EXPECT_GT(value, 0u);
      }
    }
    EXPECT_TRUE(has_packets_in);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(trace.to_string().find("counters:"), std::string::npos);
}

}  // namespace
}  // namespace sf::core

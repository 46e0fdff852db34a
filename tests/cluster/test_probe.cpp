#include "cluster/probe.hpp"

#include <gtest/gtest.h>

#include "workload/topology.hpp"

namespace sf::cluster {
namespace {

struct Fixture {
  workload::RegionTopology topology;
  Controller controller;

  Fixture()
      : topology(workload::generate_topology([] {
          workload::TopologyConfig config;
          config.vpc_count = 30;
          config.total_vms = 600;
          config.nc_count = 60;
          config.peerings_per_vpc = 0.5;
          config.seed = 21;
          return config;
        }())),
        controller([] {
          Controller::Config config;
          config.cluster_template.primary_devices = 2;
          config.cluster_template.backup_devices = 0;
          config.max_clusters = 2;
          config.initial_clusters = 2;
          config.routes_water_level = 1'000;
          return config;
        }()) {
    controller.install_topology(topology);
  }
};

TEST(ProbeCampaign, CleanInstallPasses) {
  Fixture fixture;
  ProbeCampaign campaign;
  const auto report =
      campaign.run_all(fixture.controller, fixture.topology);
  EXPECT_GT(report.probes_sent, fixture.topology.vpcs.size());
  EXPECT_TRUE(report.passed()) << (report.failures.empty()
                                       ? "?"
                                       : report.failures.front());
}

TEST(ProbeCampaign, PerClusterRunCoversOnlyThatCluster) {
  Fixture fixture;
  ProbeCampaign campaign;
  const auto all = campaign.run_all(fixture.controller, fixture.topology);
  std::size_t per_cluster_total = 0;
  for (std::size_t c = 0; c < fixture.controller.cluster_count(); ++c) {
    per_cluster_total +=
        campaign.run(fixture.controller, c, fixture.topology).probes_sent;
  }
  EXPECT_EQ(per_cluster_total, all.probes_sent);
}

TEST(ProbeCampaign, DetectsMissingMapping) {
  Fixture fixture;
  // Corrupt one device: drop a VM mapping from every device of its
  // cluster so the probe deterministically crosses the gap.
  const auto& vpc = fixture.topology.vpcs[2];
  const auto& vm = vpc.vms.front();
  const auto cluster_id = fixture.controller.cluster_for(vpc.vni);
  ASSERT_TRUE(cluster_id.has_value());
  fixture.controller.cluster(*cluster_id)
      .remove_mapping(tables::VmNcKey{vpc.vni, vm.ip});

  ProbeCampaign campaign;
  const auto report =
      campaign.run(fixture.controller, *cluster_id, fixture.topology);
  EXPECT_GT(report.mismatches, 0u);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures.front().find(std::to_string(vpc.vni)),
            std::string::npos);
}

TEST(ProbeCampaign, DetectsWrongRouteAction) {
  Fixture fixture;
  // Replace a VPC's default route so Internet probes stop steering to
  // the software fleet.
  const auto& vpc = fixture.topology.vpcs[1];
  const auto cluster_id = fixture.controller.cluster_for(vpc.vni);
  ASSERT_TRUE(cluster_id.has_value());
  const net::IpPrefix default_route =
      vpc.family == net::IpFamily::kV4
          ? net::IpPrefix(net::Ipv4Prefix(net::Ipv4Addr(0), 0))
          : net::IpPrefix(net::Ipv6Prefix(net::Ipv6Addr(0, 0), 0));
  fixture.controller.cluster(*cluster_id)
      .install_route(vpc.vni, default_route,
                     tables::VxlanRouteAction{
                         tables::RouteScope::kCrossRegion, 0,
                         net::Ipv4Addr(198, 18, 0, 1)});

  ProbeCampaign campaign;
  const auto report =
      campaign.run(fixture.controller, *cluster_id, fixture.topology);
  EXPECT_GT(report.mismatches, 0u);
}

TEST(ProbeCampaign, FailureDetailListIsBounded) {
  Fixture fixture;
  // Break everything: fail all devices of cluster 0 so probes drop.
  auto& cluster = fixture.controller.cluster(0);
  for (std::size_t d = 0; d < cluster.device_count(); ++d) {
    cluster.fail_device(d);
  }
  ProbeCampaign campaign;
  const auto report =
      campaign.run(fixture.controller, 0, fixture.topology);
  EXPECT_GT(report.mismatches, ProbeCampaign::kMaxFailureDetails);
  EXPECT_EQ(report.failures.size(), ProbeCampaign::kMaxFailureDetails);
}

}  // namespace
}  // namespace sf::cluster

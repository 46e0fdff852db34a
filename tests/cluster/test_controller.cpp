#include "cluster/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/disaster_recovery.hpp"

namespace sf::cluster {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;
using tables::VmNcAction;
using tables::VmNcKey;
using tables::VxlanRouteAction;
using workload::VpcRecord;

Controller::Config small_config() {
  Controller::Config config;
  config.cluster_template.primary_devices = 1;
  config.cluster_template.backup_devices = 1;
  config.max_clusters = 3;
  config.routes_water_level = 6;
  config.mappings_water_level = 100;
  return config;
}

VpcRecord make_vpc(net::Vni vni, std::size_t subnets, std::size_t vms) {
  VpcRecord vpc;
  vpc.vni = vni;
  vpc.family = net::IpFamily::kV4;
  for (std::size_t s = 0; s < subnets; ++s) {
    vpc.routes.push_back(workload::RouteRecord{
        net::Ipv4Prefix(
            net::Ipv4Addr(10, static_cast<std::uint8_t>(vni & 0xff),
                          static_cast<std::uint8_t>(s), 0),
            24),
        VxlanRouteAction{RouteScope::kLocal, 0, {}}});
  }
  for (std::size_t v = 0; v < vms; ++v) {
    vpc.vms.push_back(workload::VmRecord{
        IpAddr(net::Ipv4Addr(10, static_cast<std::uint8_t>(vni & 0xff), 0,
                             static_cast<std::uint8_t>(2 + v))),
        net::Ipv4Addr(172, 16, 0, 1)});
  }
  return vpc;
}

TEST(Controller, AdmitsVpcAndInstallsTables) {
  Controller controller(small_config());
  EXPECT_TRUE(controller.add_vpc(make_vpc(100, 2, 3)));
  ASSERT_EQ(controller.cluster_count(), 1u);
  EXPECT_EQ(controller.cluster(0).route_count(), 2u);
  EXPECT_EQ(controller.cluster(0).mapping_count(), 3u);
  EXPECT_EQ(controller.cluster_for(100), 0u);
  EXPECT_FALSE(controller.add_vpc(make_vpc(100, 1, 1)));  // duplicate
}

TEST(Controller, OpensNewClusterAtWaterLevel) {
  Controller::Config config = small_config();
  config.routes_water_level = 4;  // admission checks the current level
  Controller controller(config);
  EXPECT_TRUE(controller.add_vpc(make_vpc(100, 4, 1)));
  EXPECT_TRUE(controller.add_vpc(make_vpc(101, 4, 1)));
  EXPECT_EQ(controller.cluster_count(), 2u);
  EXPECT_NE(controller.cluster_for(100), controller.cluster_for(101));
}

TEST(Controller, ClosesSalesWhenRegionFull) {
  Controller::Config config = small_config();
  config.max_clusters = 1;
  Controller controller(config);
  EXPECT_TRUE(controller.add_vpc(make_vpc(100, 6, 1)));
  EXPECT_FALSE(controller.add_vpc(make_vpc(101, 1, 1)));
  bool alerted = false;
  for (const auto& alert : controller.journal().events("alert")) {
    if (alert.message.find("admission refused") != std::string::npos) {
      alerted = true;
    }
  }
  EXPECT_TRUE(alerted);
  EXPECT_EQ(controller.journal().overwritten(), 0u);
}

TEST(Controller, JournalsEventsAtTheControllerClock) {
  Controller::Config config = small_config();
  config.max_clusters = 1;
  Controller controller(config);
  EXPECT_TRUE(controller.add_vpc(make_vpc(100, 6, 1)));
  controller.advance_clock(5);
  EXPECT_FALSE(controller.add_vpc(make_vpc(101, 1, 1)));
  const auto alerts = controller.journal().events("alert");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].time, 5.0);
  EXPECT_NE(controller.journal().to_string().find(
                "[t=5.000] alert: admission refused"),
            std::string::npos);
}

TEST(Controller, RoutesPacketsToTheRightCluster) {
  Controller controller(small_config());
  controller.add_vpc(make_vpc(100, 4, 2));
  controller.add_vpc(make_vpc(101, 4, 2));
  net::OverlayPacket pkt;
  pkt.vni = 101;
  pkt.inner.src = controller.cluster(0).device(0).config().device_ip;
  pkt.inner.src = IpAddr(net::Ipv4Addr(10, 101, 0, 2));
  pkt.inner.dst = IpAddr(net::Ipv4Addr(10, 101, 0, 3));
  pkt.payload_size = 64;
  const auto result = controller.process(pkt);
  EXPECT_EQ(result.action, dataplane::Action::kForwardToNc);

  pkt.vni = 999;  // unknown tenant
  EXPECT_EQ(controller.process(pkt).action, dataplane::Action::kDrop);
}

TEST(Controller, MirrorsOpsToSoftwareFleet) {
  Controller controller(small_config());
  std::vector<TableOp> mirrored;
  controller.set_mirror([&](const TableOp& op) { mirrored.push_back(op); });
  controller.add_vpc(make_vpc(100, 2, 3));
  EXPECT_EQ(mirrored.size(), 5u);  // 2 routes + 3 mappings
  controller.remove_mapping(
      VmNcKey{100, IpAddr(net::Ipv4Addr(10, 100, 0, 2))});
  EXPECT_EQ(mirrored.size(), 6u);
  EXPECT_EQ(mirrored.back().kind, TableOp::Kind::kDelMapping);
}

TEST(Controller, IncrementalRouteUpdates) {
  Controller controller(small_config());
  controller.add_vpc(make_vpc(100, 1, 1));
  const IpPrefix extra = IpPrefix::must_parse("10.200.0.0/24");
  EXPECT_EQ(controller.install_route(
                100, extra, VxlanRouteAction{RouteScope::kLocal, 0, {}}),
            dataplane::TableOpStatus::kOk);
  EXPECT_EQ(controller.cluster(0).route_count(), 2u);
  EXPECT_EQ(controller.remove_route(100, extra),
            dataplane::TableOpStatus::kOk);
  EXPECT_EQ(controller.cluster(0).route_count(), 1u);
  EXPECT_EQ(controller.remove_route(100, extra),
            dataplane::TableOpStatus::kNotFound);
  EXPECT_EQ(controller.install_route(
                999, extra, VxlanRouteAction{RouteScope::kLocal, 0, {}}),
            dataplane::TableOpStatus::kNotFound);
}

TEST(Controller, ConsistencyCheckPassesCleanInstall) {
  Controller controller(small_config());
  controller.add_vpc(make_vpc(100, 2, 3));
  const auto report = controller.check_consistency(0);
  EXPECT_GT(report.entries_checked, 0u);
  EXPECT_EQ(report.missing_on_device, 0u);
}

TEST(Controller, ConsistencyCheckDetectsDeviceDrift) {
  Controller controller(small_config());
  controller.add_vpc(make_vpc(100, 2, 3));
  // Simulate a buggy device silently losing an entry (§6.1: bugs,
  // misconfiguration or insufficient gateway memory).
  controller.cluster(0).device(0).remove_route(
      100, IpPrefix::must_parse("10.100.0.0/24"));
  const auto report = controller.check_consistency(0);
  EXPECT_EQ(report.missing_on_device, 1u);
}

TEST(Controller, ClusterRouteCountsFeedFig23) {
  Controller::Config fig_config = small_config();
  fig_config.routes_water_level = 4;
  Controller controller(fig_config);
  controller.add_vpc(make_vpc(100, 4, 1));
  controller.add_vpc(make_vpc(101, 4, 1));
  const auto counts = controller.cluster_route_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 4u);
  EXPECT_EQ(counts[1], 4u);
}

TEST(DisasterRecovery, NodeFailureJournalAndColdStandby) {
  // Two primaries: losing one does not fail over, but dips below the
  // live-fraction threshold and pulls in the cold standby.
  Controller::Config controller_config = small_config();
  controller_config.cluster_template.primary_devices = 2;
  Controller controller(controller_config);
  controller.add_vpc(make_vpc(100, 1, 1));
  DisasterRecovery::Config config;
  config.cold_standby_pool = 1;
  config.min_live_fraction = 1.0;  // any loss triggers standby activation
  DisasterRecovery recovery(&controller, config);
  recovery.on_device_failure(0, 0, 10.0);
  EXPECT_EQ(recovery.cold_standby_available(), 0u);
  EXPECT_FALSE(controller.cluster(0).failed_over());
  EXPECT_EQ(controller.cluster(0).live_device_count(), 2u);
  EXPECT_GE(controller.journal().events("failover").size(), 2u);
  EXPECT_EQ(controller.journal().overwritten(), 0u);
}

TEST(DisasterRecovery, FailoverWhenNoStandbyLeft) {
  Controller controller(small_config());
  controller.add_vpc(make_vpc(100, 1, 1));
  DisasterRecovery::Config config;
  config.cold_standby_pool = 0;
  DisasterRecovery recovery(&controller, config);
  recovery.on_device_failure(0, 0, 1.0);
  EXPECT_TRUE(controller.cluster(0).failed_over());
  net::OverlayPacket pkt;
  pkt.vni = 100;
  pkt.inner.src = IpAddr(net::Ipv4Addr(10, 100, 0, 2));
  pkt.inner.dst = IpAddr(net::Ipv4Addr(10, 100, 0, 2));
  pkt.payload_size = 64;
  EXPECT_EQ(controller.process(pkt).action,
            dataplane::Action::kForwardToNc);
}

TEST(DisasterRecovery, PortIsolationReducesCapacity) {
  Controller controller(small_config());
  controller.add_vpc(make_vpc(100, 1, 1));
  DisasterRecovery::Config config;
  config.ports_per_device = 4;
  DisasterRecovery recovery(&controller, config);
  recovery.on_port_fault(0, 0, 1, 1.0);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 0), 0.75);
  recovery.on_port_recovery(0, 0, 1, 2.0);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 1), 1.0);
}

TEST(DisasterRecovery, AllPortsDownEscalatesToNodeFailure) {
  Controller controller(small_config());
  controller.add_vpc(make_vpc(100, 1, 1));
  DisasterRecovery::Config config;
  config.ports_per_device = 2;
  config.cold_standby_pool = 0;
  config.min_live_fraction = 0.0;
  DisasterRecovery recovery(&controller, config);
  recovery.on_port_fault(0, 0, 0, 1.0);
  recovery.on_port_fault(0, 0, 1, 2.0);
  EXPECT_TRUE(controller.cluster(0).failed_over());
}

}  // namespace

/// Forges placement state the public API cannot produce (declared a
/// friend in controller.hpp): regression seam for decommission drift,
/// where a VPC's recorded cluster id stops naming a live cluster.
struct ControllerTestPeer {
  static void set_cluster_id(Controller& controller, net::Vni vni,
                             std::uint32_t cluster_id) {
    controller.vpcs_.at(vni).cluster_id = cluster_id;
  }
  /// The desired state the controller records for one VPC.
  static auto desired_routes(const Controller& controller, net::Vni vni) {
    return controller.vpcs_.at(vni).routes;
  }
  static auto desired_mappings(const Controller& controller, net::Vni vni) {
    return controller.vpcs_.at(vni).mappings;
  }
};

namespace {

TEST(Controller, RemoveRouteOnDanglingClusterIsUnknownTarget) {
  Controller controller(small_config());
  ASSERT_TRUE(controller.add_vpc(make_vpc(100, 2, 1)));
  const IpPrefix prefix(net::Ipv4Prefix(net::Ipv4Addr(10, 100, 0, 0), 24));

  ControllerTestPeer::set_cluster_id(controller, 100, 99);
  EXPECT_EQ(controller.remove_route(100, prefix),
            dataplane::TableOpStatus::kUnknownTarget);
  // Typed, not destructive: desired state is untouched, so repairing the
  // placement lets the very same op succeed.
  ControllerTestPeer::set_cluster_id(controller, 100, 0);
  EXPECT_EQ(controller.remove_route(100, prefix),
            dataplane::TableOpStatus::kOk);
}

TEST(Controller, InstallOpsOnDanglingClusterAreUnknownTarget) {
  Controller controller(small_config());
  ASSERT_TRUE(controller.add_vpc(make_vpc(100, 1, 1)));
  ControllerTestPeer::set_cluster_id(controller, 100, 42);

  EXPECT_EQ(controller.install_route(
                100, IpPrefix(net::Ipv4Prefix(net::Ipv4Addr(10, 100, 9, 0), 24)),
                VxlanRouteAction{RouteScope::kLocal, 0, {}}),
            dataplane::TableOpStatus::kUnknownTarget);
  EXPECT_EQ(controller.install_mapping(
                {100, IpAddr(net::Ipv4Addr(10, 100, 0, 99))},
                VmNcAction{net::Ipv4Addr(172, 16, 0, 9)}),
            dataplane::TableOpStatus::kUnknownTarget);
  // Nothing was fanned out to any device.
  EXPECT_EQ(controller.cluster(0).route_count(), 1u);
  EXPECT_EQ(controller.cluster(0).mapping_count(), 1u);
}

TEST(Controller, SoftwareTierPlacementIsNeverDangling) {
  Controller::Config config = small_config();
  config.max_clusters = 1;
  config.routes_water_level = 1;
  config.admit_overflow = true;
  Controller controller(config);
  ASSERT_TRUE(controller.add_vpc(make_vpc(100, 1, 1)));  // fills cluster 0
  ASSERT_TRUE(controller.add_vpc(make_vpc(200, 1, 1)));  // software tier
  ASSERT_TRUE(controller.is_overflow(200));

  // kSoftwareTier is a live placement: ops mirror fine, no device fan-out.
  EXPECT_EQ(controller.install_route(
                200, IpPrefix(net::Ipv4Prefix(net::Ipv4Addr(10, 200, 9, 0), 24)),
                VxlanRouteAction{RouteScope::kLocal, 0, {}}),
            dataplane::TableOpStatus::kOk);
}

TEST(Controller, DrainMidIntervalReplaysDeferredOps) {
  Controller controller(small_config());
  ASSERT_TRUE(controller.add_vpc(make_vpc(100, 1, 1)));

  controller.set_update_channel_up(false);
  TableOp op;
  op.kind = TableOp::Kind::kAddRoute;
  op.vni = 100;
  op.prefix = IpPrefix(net::Ipv4Prefix(net::Ipv4Addr(10, 100, 7, 0), 24));
  op.route_action = VxlanRouteAction{RouteScope::kLocal, 0, {}};
  EXPECT_EQ(controller.push_op(op),
            dataplane::TableOpStatus::kRateLimited);  // deferred, not lost
  EXPECT_EQ(controller.deferred_op_count(), 1u);
  EXPECT_EQ(controller.cluster(0).route_count(), 1u);

  controller.set_update_channel_up(true);
  // Sliced clock advance through the interval: the deferred push lands at
  // its backoff-due instant *inside* [0, 2), not at the interval edge.
  EXPECT_EQ(controller.drain_mid_interval(0.0, 2.0, 8), 1u);
  EXPECT_EQ(controller.deferred_op_count(), 0u);
  EXPECT_EQ(controller.cluster(0).route_count(), 2u);
}

// ---- one admission pipeline for every op kind -------------------------------
//
// Each of the four op kinds meets the same six situations. A row says what
// the controller must do: the status, whether the op spends an
// update-channel token, how the kind's desired entries change, whether the
// op reaches the mirror, the kind's counter and the placement delta of the
// op's address family.

enum class Situation {
  kUnknownVni,       // no VPC owns the VNI
  kDanglingCluster,  // the VPC's cluster id names no live cluster
  kEntryMismatch,    // removes: entry absent; installs: entry already present
  kSoftwareTier,     // the VPC lives in the software tier
  kEmptyBudget,      // the update channel has no token left
  kNormal,
};

struct OpRow {
  TableOp::Kind kind;
  Situation situation;
  dataplane::TableOpStatus status;
  bool spends_token;
  int entry_change;     // change in the VPC's desired entries of the kind
  bool applied;         // desired state edited, mirrored and counted
  int placement_delta;  // change in the placed workload, op's family
};

constexpr net::Vni kHardwareVni = 100;
constexpr net::Vni kSoftwareVni = 200;
constexpr net::Vni kProbeVni = 30;      // spends tokens to measure the budget
constexpr std::size_t kSpareTokens = 2;  // budget left after provisioning

IpPrefix op_prefix(net::Vni vni, net::IpFamily family, int n) {
  if (family == net::IpFamily::kV4) {
    return IpPrefix(net::Ipv4Prefix(
        net::Ipv4Addr(10, static_cast<std::uint8_t>(vni & 0xff),
                      static_cast<std::uint8_t>(n), 0),
        24));
  }
  return IpPrefix::must_parse("fd00:" + std::to_string(vni) + ":" +
                              std::to_string(n) + "::/64");
}

IpAddr op_vm(net::Vni vni, net::IpFamily family, int n) {
  if (family == net::IpFamily::kV4) {
    return IpAddr(net::Ipv4Addr(10, static_cast<std::uint8_t>(vni & 0xff), 0,
                                static_cast<std::uint8_t>(2 + n)));
  }
  return IpAddr::must_parse("fd00:" + std::to_string(vni) + "::" +
                            std::to_string(2 + n));
}

/// One route and one VM per family, entry index 0.
VpcRecord dual_stack_vpc(net::Vni vni) {
  VpcRecord vpc;
  vpc.vni = vni;
  for (net::IpFamily family : {net::IpFamily::kV4, net::IpFamily::kV6}) {
    vpc.routes.push_back(workload::RouteRecord{
        op_prefix(vni, family, 0),
        VxlanRouteAction{RouteScope::kLocal, 0, {}}});
    vpc.vms.push_back(workload::VmRecord{op_vm(vni, family, 0),
                                         net::Ipv4Addr(172, 16, 0, 1)});
  }
  return vpc;
}

bool is_route(TableOp::Kind kind) {
  return kind == TableOp::Kind::kAddRoute || kind == TableOp::Kind::kDelRoute;
}

bool is_install(TableOp::Kind kind) {
  return kind == TableOp::Kind::kAddRoute ||
         kind == TableOp::Kind::kAddMapping;
}

/// Fills every field, including those the kind does not read; those name
/// the VNI after `vni`, which no VPC owns.
TableOp dirty_op(TableOp::Kind kind, net::Vni vni, net::IpFamily family,
                 int n) {
  const net::Vni route_vni = is_route(kind) ? vni : vni + 1;
  const net::Vni mapping_vni = is_route(kind) ? vni + 1 : vni;
  TableOp op;
  op.kind = kind;
  op.vni = route_vni;
  op.prefix = op_prefix(route_vni, family, n);
  op.route_action = VxlanRouteAction{RouteScope::kIdc, 0,
                                     net::Ipv4Addr(192, 0, 2, 1)};
  op.mapping_key = VmNcKey{mapping_vni, op_vm(mapping_vni, family, n)};
  op.mapping_action = VmNcAction{net::Ipv4Addr(172, 16, 0, 9)};
  return op;
}

/// The op as the kind's TableOpBatch builder writes it.
TableOp canonical_op(const TableOp& op) {
  dataplane::TableOpBatch batch;
  switch (op.kind) {
    case TableOp::Kind::kAddRoute:
      batch.add_route(op.vni, op.prefix, op.route_action);
      break;
    case TableOp::Kind::kDelRoute:
      batch.del_route(op.vni, op.prefix);
      break;
    case TableOp::Kind::kAddMapping:
      batch.add_mapping(op.mapping_key, op.mapping_action);
      break;
    case TableOp::Kind::kDelMapping:
      batch.del_mapping(op.mapping_key);
      break;
  }
  return batch.ops.front();
}

bool same_op(const TableOp& a, const TableOp& b) {
  return a.kind == b.kind && a.vni == b.vni && a.prefix == b.prefix &&
         a.route_action == b.route_action && a.mapping_key == b.mapping_key &&
         a.mapping_action == b.mapping_action;
}

const char* counter_name(TableOp::Kind kind) {
  switch (kind) {
    case TableOp::Kind::kAddRoute:
      return "controller.routes_added";
    case TableOp::Kind::kDelRoute:
      return "controller.routes_removed";
    case TableOp::Kind::kAddMapping:
      return "controller.mappings_added";
    case TableOp::Kind::kDelMapping:
      return "controller.mappings_removed";
  }
  return "";
}

/// Placed route (or VM-NC) entries of one family.
std::int64_t placed(const Controller& controller, bool routes,
                    net::IpFamily family) {
  const asic::GatewayWorkload& workload =
      controller.placement_engine()->placement().workload();
  const bool v4 = family == net::IpFamily::kV4;
  return static_cast<std::int64_t>(
      routes ? (v4 ? workload.vxlan_routes_v4 : workload.vxlan_routes_v6)
             : (v4 ? workload.vm_maps_v4 : workload.vm_maps_v6));
}

/// Tokens left in the update-channel budget: installs probe routes into
/// kProbeVni until the channel refuses one.
std::size_t tokens_left(Controller& controller) {
  std::size_t granted = 0;
  for (int n = 1; n <= 8; ++n) {
    const dataplane::TableOpStatus status = controller.install_route(
        kProbeVni, op_prefix(kProbeVni, net::IpFamily::kV4, n),
        VxlanRouteAction{RouteScope::kLocal, 0, {}});
    if (status == dataplane::TableOpStatus::kRateLimited) break;
    ++granted;
  }
  return granted;
}

/// Cluster 0 holds kProbeVni and kHardwareVni; kHardwareVni's two routes
/// bring it to its water level, so kSoftwareVni lands in the software
/// tier. The clock never moves, so the budget never refills.
Controller::Config op_pipeline_config() {
  Controller::Config config;
  config.cluster_template.primary_devices = 1;
  config.cluster_template.backup_devices = 0;
  config.max_clusters = 1;
  config.routes_water_level = 2;
  config.mappings_water_level = 100;
  config.admit_overflow = true;
  config.placement_enabled = true;
  config.table_op_rate_limit = 1;
  config.table_op_burst = 4 + kSpareTokens;  // kHardwareVni's four installs
  return config;
}

TEST(ControllerOps, EveryKindRunsOneAdmissionPipeline) {
  using K = TableOp::Kind;
  using S = Situation;
  using dataplane::TableOpStatus;
  constexpr TableOpStatus kOk = TableOpStatus::kOk;
  constexpr TableOpStatus kDup = TableOpStatus::kDuplicate;
  constexpr TableOpStatus kMiss = TableOpStatus::kNotFound;
  constexpr TableOpStatus kLimited = TableOpStatus::kRateLimited;
  constexpr TableOpStatus kDangling = TableOpStatus::kUnknownTarget;
  // clang-format off
  const OpRow rows[] = {
    // kind            situation           status     token  entries applied placed
    {K::kAddRoute,   S::kUnknownVni,      kMiss,     false,  0, false,  0},
    {K::kAddRoute,   S::kDanglingCluster, kDangling, false,  0, false,  0},
    {K::kAddRoute,   S::kEntryMismatch,   kDup,      true,   0, true,   0},
    {K::kAddRoute,   S::kSoftwareTier,    kOk,       false, +1, true,   0},
    {K::kAddRoute,   S::kEmptyBudget,     kLimited,  false,  0, false,  0},
    {K::kAddRoute,   S::kNormal,          kOk,       true,  +1, true,  +1},
    {K::kDelRoute,   S::kUnknownVni,      kMiss,     false,  0, false,  0},
    {K::kDelRoute,   S::kDanglingCluster, kDangling, false,  0, false,  0},
    {K::kDelRoute,   S::kEntryMismatch,   kMiss,     false,  0, false,  0},
    {K::kDelRoute,   S::kSoftwareTier,    kOk,       false, -1, true,   0},
    {K::kDelRoute,   S::kEmptyBudget,     kLimited,  false,  0, false,  0},
    {K::kDelRoute,   S::kNormal,          kOk,       true,  -1, true,  -1},
    {K::kAddMapping, S::kUnknownVni,      kMiss,     false,  0, false,  0},
    {K::kAddMapping, S::kDanglingCluster, kDangling, false,  0, false,  0},
    {K::kAddMapping, S::kEntryMismatch,   kDup,      true,   0, true,   0},
    {K::kAddMapping, S::kSoftwareTier,    kOk,       false, +1, true,   0},
    {K::kAddMapping, S::kEmptyBudget,     kLimited,  false,  0, false,  0},
    {K::kAddMapping, S::kNormal,          kOk,       true,  +1, true,  +1},
    {K::kDelMapping, S::kUnknownVni,      kMiss,     false,  0, false,  0},
    {K::kDelMapping, S::kDanglingCluster, kDangling, false,  0, false,  0},
    {K::kDelMapping, S::kEntryMismatch,   kMiss,     false,  0, false,  0},
    {K::kDelMapping, S::kSoftwareTier,    kOk,       false, -1, true,   0},
    {K::kDelMapping, S::kEmptyBudget,     kLimited,  false,  0, false,  0},
    {K::kDelMapping, S::kNormal,          kOk,       true,  -1, true,  -1},
  };
  // clang-format on

  for (const OpRow& row : rows) {
    for (net::IpFamily family : {net::IpFamily::kV4, net::IpFamily::kV6}) {
      SCOPED_TRACE(::testing::Message()
                   << counter_name(row.kind) << ", situation "
                   << static_cast<int>(row.situation) << ", "
                   << (family == net::IpFamily::kV4 ? "v4" : "v6"));
      Controller controller(op_pipeline_config());
      VpcRecord probe_vpc;
      probe_vpc.vni = kProbeVni;
      ASSERT_TRUE(controller.add_vpc(probe_vpc));
      ASSERT_TRUE(controller.add_vpc(dual_stack_vpc(kHardwareVni)));
      ASSERT_TRUE(controller.add_vpc(dual_stack_vpc(kSoftwareVni)));
      ASSERT_TRUE(controller.is_overflow(kSoftwareVni));
      ASSERT_EQ(controller.deferred_op_count(), 0u);

      net::Vni vni = kHardwareVni;
      if (row.situation == S::kUnknownVni) vni = 77;
      if (row.situation == S::kSoftwareTier) vni = kSoftwareVni;
      if (row.situation == S::kDanglingCluster) {
        ControllerTestPeer::set_cluster_id(controller, vni, 42);
      }
      std::size_t tokens_before = kSpareTokens;
      if (row.situation == S::kEmptyBudget) {
        ASSERT_EQ(tokens_left(controller), kSpareTokens);
        tokens_before = 0;
      }
      // Installs add entry 1 and removes retire entry 0; the mismatch row
      // swaps them, refreshing entry 0 or removing the absent entry 1.
      const bool install = is_install(row.kind);
      const int entry =
          (install != (row.situation == S::kEntryMismatch)) ? 1 : 0;
      const TableOp op = dirty_op(row.kind, vni, family, entry);
      const TableOp want = canonical_op(op);

      const auto routes_before =
          ControllerTestPeer::desired_routes(controller, kHardwareVni);
      const auto mappings_before =
          ControllerTestPeer::desired_mappings(controller, kHardwareVni);
      const auto sw_routes_before =
          ControllerTestPeer::desired_routes(controller, kSoftwareVni);
      const auto sw_mappings_before =
          ControllerTestPeer::desired_mappings(controller, kSoftwareVni);
      std::uint64_t counted_before[4];
      for (int k = 0; k < 4; ++k) {
        counted_before[k] = controller.registry().counter_value(
            counter_name(static_cast<K>(k)));
      }
      const net::IpFamily families[] = {net::IpFamily::kV4,
                                        net::IpFamily::kV6};
      std::int64_t placed_before[2][2];
      for (int r = 0; r < 2; ++r) {
        for (int f = 0; f < 2; ++f) {
          placed_before[r][f] = placed(controller, r == 1, families[f]);
        }
      }
      std::vector<TableOp> mirrored;
      controller.set_mirror(
          [&](const TableOp& m) { mirrored.push_back(m); });

      EXPECT_EQ(controller.apply(dataplane::TableOpBatch::single(op))
                    .status(),
                row.status);

      // The mirror sees exactly the canonical op, or nothing.
      controller.set_mirror(nullptr);
      if (row.applied) {
        ASSERT_EQ(mirrored.size(), 1u);
        EXPECT_TRUE(same_op(mirrored.front(), want));
      } else {
        EXPECT_TRUE(mirrored.empty());
      }

      // Desired state: only the op's own entry list may move.
      if (row.situation == S::kDanglingCluster) {
        ControllerTestPeer::set_cluster_id(controller, vni, 0);
      }
      const net::Vni target = row.applied ? vni : kHardwareVni;
      const auto routes = ControllerTestPeer::desired_routes(controller, target);
      const auto mappings =
          ControllerTestPeer::desired_mappings(controller, target);
      const auto& base_routes =
          target == kSoftwareVni ? sw_routes_before : routes_before;
      const auto& base_mappings =
          target == kSoftwareVni ? sw_mappings_before : mappings_before;
      if (is_route(row.kind)) {
        EXPECT_EQ(mappings, base_mappings);
        EXPECT_EQ(static_cast<int>(routes.size()),
                  static_cast<int>(base_routes.size()) + row.entry_change);
        const auto held = std::find_if(
            routes.begin(), routes.end(),
            [&](const auto& r) { return r.first == want.prefix; });
        if (!row.applied) {
          EXPECT_EQ(routes, base_routes);
        } else if (install) {
          ASSERT_NE(held, routes.end());
          EXPECT_EQ(held->second, want.route_action);
        } else {
          EXPECT_EQ(held, routes.end());
        }
      } else {
        EXPECT_EQ(routes, base_routes);
        EXPECT_EQ(static_cast<int>(mappings.size()),
                  static_cast<int>(base_mappings.size()) + row.entry_change);
        const auto held = std::find_if(
            mappings.begin(), mappings.end(),
            [&](const auto& m) { return m.first == want.mapping_key; });
        if (!row.applied) {
          EXPECT_EQ(mappings, base_mappings);
        } else if (install) {
          ASSERT_NE(held, mappings.end());
          EXPECT_EQ(held->second, want.mapping_action);
        } else {
          EXPECT_EQ(held, mappings.end());
        }
      }
      if (target != kSoftwareVni) {
        EXPECT_EQ(ControllerTestPeer::desired_routes(controller, kSoftwareVni),
                  sw_routes_before);
        EXPECT_EQ(
            ControllerTestPeer::desired_mappings(controller, kSoftwareVni),
            sw_mappings_before);
      } else {
        EXPECT_EQ(ControllerTestPeer::desired_routes(controller, kHardwareVni),
                  routes_before);
        EXPECT_EQ(
            ControllerTestPeer::desired_mappings(controller, kHardwareVni),
            mappings_before);
      }

      // The kind's counter moves once per applied op; no other does.
      for (int k = 0; k < 4; ++k) {
        const bool own = static_cast<K>(k) == row.kind;
        EXPECT_EQ(controller.registry().counter_value(
                      counter_name(static_cast<K>(k))),
                  counted_before[k] + ((own && row.applied) ? 1u : 0u))
            << counter_name(static_cast<K>(k));
      }

      // Placement moves only the op's table and family.
      for (int r = 0; r < 2; ++r) {
        for (int f = 0; f < 2; ++f) {
          const bool own =
              (r == 1) == is_route(row.kind) && families[f] == family;
          EXPECT_EQ(placed(controller, r == 1, families[f]),
                    placed_before[r][f] + (own ? row.placement_delta : 0));
        }
      }

      // Tokens: measured last, since the probes spend them.
      EXPECT_EQ(tokens_left(controller),
                tokens_before - (row.spends_token ? 1 : 0));
    }
  }
}

}  // namespace
}  // namespace sf::cluster

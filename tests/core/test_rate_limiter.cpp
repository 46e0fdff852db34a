// Satellite coverage for the update-channel budget: TokenBucket behavior
// under non-monotonic clocks, and the controller's retry semantics when
// the budget answers kRateLimited.

#include <gtest/gtest.h>

#include <stdexcept>

#include "cluster/controller.hpp"
#include "tables/token_bucket.hpp"

namespace sf {
namespace {

TEST(TokenBucket, BackwardsTimestampDoesNotMintTokens) {
  tables::TokenBucket bucket(10.0, 10.0);
  EXPECT_TRUE(bucket.try_consume(10.0, 100.0));  // drain the burst
  EXPECT_DOUBLE_EQ(bucket.available(100.0), 0.0);
  // A stale (earlier) timestamp — reordered probes, clock slew — must not
  // refill the bucket, and must not move the refill cursor backwards.
  EXPECT_DOUBLE_EQ(bucket.available(50.0), 0.0);
  EXPECT_FALSE(bucket.try_consume(1.0, 50.0));
  // Nor may the excursion poison future refills: after one real second
  // past the high-water mark, exactly `rate` tokens exist.
  EXPECT_DOUBLE_EQ(bucket.available(101.0), 10.0);
}

TEST(TokenBucket, RepeatedIdenticalTimestampRefillsOnce) {
  tables::TokenBucket bucket(10.0, 10.0);
  ASSERT_TRUE(bucket.try_consume(10.0, 0.0));
  ASSERT_DOUBLE_EQ(bucket.available(1.0), 10.0);
  ASSERT_TRUE(bucket.try_consume(10.0, 1.0));
  // Hammering the same instant never accumulates anything.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(bucket.try_consume(1.0, 1.0));
  }
  EXPECT_EQ(bucket.rejected(), 5u);
}

TEST(TokenBucket, AccountingSurvivesNonMonotonicMix) {
  tables::TokenBucket bucket(100.0, 50.0);
  std::uint64_t accepted = 0;
  // Interleave forward and stale timestamps; total acceptances must be
  // bounded by burst + rate * (max forward time), never inflated by the
  // backwards jumps.
  const double times[] = {0.0, 1.0, 0.5, 1.0, 2.0, 1.5, 2.0, 3.0};
  for (double now : times) {
    for (int i = 0; i < 100; ++i) {
      if (bucket.try_consume(1.0, now)) ++accepted;
    }
  }
  EXPECT_LE(accepted, static_cast<std::uint64_t>(50 + 100 * 3));
  EXPECT_EQ(accepted, bucket.accepted());
}

TEST(ControllerRetry, RateLimitedProvisioningConvergesViaRetryQueue) {
  cluster::Controller::Config config;
  config.cluster_template.primary_devices = 1;
  config.cluster_template.backup_devices = 0;
  // A budget small enough that a burst of VPC installs overruns it.
  config.table_op_rate_limit = 4.0;
  config.table_op_burst = 4;
  cluster::Controller controller(config);

  std::size_t admitted = 0;
  for (net::Vni vni = 1; vni <= 8; ++vni) {
    workload::VpcRecord vpc;
    vpc.vni = vni;
    workload::RouteRecord route;
    route.prefix = net::Ipv4Prefix(net::Ipv4Addr(10, 0, vni, 0), 24);
    route.action = tables::VxlanRouteAction{tables::RouteScope::kLocal, 0,
                                            net::Ipv4Addr()};
    vpc.routes.push_back(route);
    workload::VmRecord vm;
    vm.ip = net::IpAddr(net::Ipv4Addr(10, 0, vni, 1));
    vm.nc_ip = net::Ipv4Addr(172, 16, 0, vni);
    vpc.vms.push_back(vm);
    if (controller.add_vpc(vpc)) ++admitted;
  }
  EXPECT_EQ(admitted, 8u);
  // 16 ops against a 4-op burst: most of them were rate limited. Before
  // the retry queue existed they vanished here — admitted VPCs whose
  // routes never reached any device.
  EXPECT_GT(controller.deferred_op_count(), 0u);
  EXPECT_LT(controller.cluster(0).route_count(), 8u);

  // Advancing the clock redelivers under the refilled budget until the
  // desired state and the devices agree exactly.
  std::size_t replayed = 0;
  for (double now = 1.0; now <= 64.0; now += 1.0) {
    replayed += controller.advance_clock(now);
    if (controller.deferred_op_count() == 0) break;
  }
  EXPECT_EQ(controller.deferred_op_count(), 0u);
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(controller.cluster(0).route_count(), 8u);
  EXPECT_EQ(controller.cluster(0).mapping_count(), 8u);
  const auto audit = controller.check_consistency(0);
  EXPECT_EQ(audit.missing_on_device, 0u);
  EXPECT_GT(audit.entries_checked, 0u);
}

TEST(ControllerRetry, PositiveRateNeedsPositiveBurst) {
  // The budget is a tables::TokenBucket: a rate with no burst would refuse
  // every op forever, so the controller refuses to build.
  cluster::Controller::Config config;
  config.cluster_template.primary_devices = 1;
  config.cluster_template.backup_devices = 0;
  config.table_op_rate_limit = 10.0;
  config.table_op_burst = 0;
  EXPECT_THROW(cluster::Controller{config}, std::invalid_argument);
  config.table_op_rate_limit = 0;  // no budget: the burst is unused
  EXPECT_NO_THROW(cluster::Controller{config});
}

TEST(ControllerRetry, ChannelOutageDefersAndDrains) {
  cluster::Controller::Config config;
  config.cluster_template.primary_devices = 1;
  config.cluster_template.backup_devices = 0;
  cluster::Controller controller(config);

  workload::VpcRecord vpc;
  vpc.vni = 42;
  workload::RouteRecord route;
  route.prefix = net::Ipv4Prefix(net::Ipv4Addr(10, 0, 1, 0), 24);
  route.action = tables::VxlanRouteAction{tables::RouteScope::kLocal, 0,
                                          net::Ipv4Addr()};
  vpc.routes.push_back(route);
  ASSERT_TRUE(controller.add_vpc(vpc));
  ASSERT_EQ(controller.deferred_op_count(), 0u);

  controller.set_update_channel_up(false);
  // Direct programming while the channel is down is refused...
  EXPECT_EQ(controller.install_route(
                42, net::Ipv4Prefix(net::Ipv4Addr(10, 0, 2, 0), 24),
                tables::VxlanRouteAction{tables::RouteScope::kLocal, 0,
                                         net::Ipv4Addr()}),
            dataplane::TableOpStatus::kRateLimited);
  // ...but the reliable push path parks the op instead of losing it.
  dataplane::TableOp op;
  op.kind = dataplane::TableOp::Kind::kAddRoute;
  op.vni = 42;
  op.prefix = net::Ipv4Prefix(net::Ipv4Addr(10, 0, 3, 0), 24);
  op.route_action = tables::VxlanRouteAction{tables::RouteScope::kLocal, 0,
                                             net::Ipv4Addr()};
  EXPECT_EQ(controller.push_op(op), dataplane::TableOpStatus::kRateLimited);
  EXPECT_EQ(controller.deferred_op_count(), 1u);
  EXPECT_EQ(controller.advance_clock(1.0), 0u);  // still down

  controller.set_update_channel_up(true);
  EXPECT_EQ(controller.advance_clock(2.0), 1u);
  EXPECT_EQ(controller.deferred_op_count(), 0u);
  EXPECT_EQ(controller.check_consistency(0).missing_on_device, 0u);
}

}  // namespace
}  // namespace sf

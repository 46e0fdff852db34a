// kControllerBrownout — the update channel stays nominally up but refuses
// every attempt, so a configured circuit breaker must walk the whole
// ladder: consecutive refusals trip it open, pushes arriving while open
// short-circuit onto the retry queue, the half-open probe re-opens against
// the still-degraded channel, and the first post-brownout probe closes it
// and drains the queue. The chaos layer must track the transitions in the
// report, and the new schedule face must stay out of pre-existing seeds.

#include <gtest/gtest.h>

#include <string>

#include "chaos/injector.hpp"
#include "cluster/controller.hpp"
#include "core/sailfish.hpp"
#include "golden.hpp"

namespace sf::chaos {
namespace {

using cluster::Controller;
using dataplane::TableOp;
using dataplane::TableOpStatus;
using guard::CircuitBreaker;
using tables::RouteScope;
using tables::VxlanRouteAction;

// ---------------------------------------------------------------------------
// Direct controller ladder: the degraded channel (unlike a hard outage,
// covered by test_controller_breaker.cpp) keeps attempting and refusing.

workload::VpcRecord two_subnet_vpc(net::Vni vni) {
  workload::VpcRecord vpc;
  vpc.vni = vni;
  for (std::uint8_t s = 0; s < 2; ++s) {
    vpc.routes.push_back(workload::RouteRecord{
        net::Ipv4Prefix(net::Ipv4Addr(10, 50, s, 0), 24),
        VxlanRouteAction{RouteScope::kLocal, 0, {}}});
  }
  return vpc;
}

net::IpPrefix extra_subnet() {
  return net::Ipv4Prefix(net::Ipv4Addr(10, 50, 9, 0), 24);
}

TEST(ControllerBrownout, DegradedChannelWalksTheBreakerLadder) {
  Controller::Config config;
  config.cluster_template.primary_devices = 1;
  config.cluster_template.backup_devices = 1;
  config.breaker.trip_after = 2;
  config.breaker.open_cooldown_s = 5.0;
  Controller controller(config);
  ASSERT_TRUE(controller.add_vpc(two_subnet_vpc(100)));
  ASSERT_NE(controller.breaker(), nullptr);

  // Brownout: the channel reports up but refuses every attempt. Two
  // refused direct installs trip the breaker.
  controller.set_update_channel_degraded(true);
  EXPECT_TRUE(controller.update_channel_degraded());
  EXPECT_EQ(controller.install_route(100, extra_subnet(),
                                     VxlanRouteAction{RouteScope::kLocal, 0, {}}),
            TableOpStatus::kRateLimited);
  EXPECT_EQ(controller.breaker()->stats().trips, 0u);
  EXPECT_EQ(controller.install_route(100, extra_subnet(),
                                     VxlanRouteAction{RouteScope::kLocal, 0, {}}),
            TableOpStatus::kRateLimited);
  EXPECT_EQ(controller.breaker()->stats().trips, 1u);
  EXPECT_EQ(controller.breaker()->state(0.0), CircuitBreaker::State::kOpen);

  // While open, a push parks without burning a channel attempt.
  TableOp op;
  op.kind = TableOp::Kind::kAddRoute;
  op.vni = 100;
  op.prefix = extra_subnet();
  op.route_action = VxlanRouteAction{RouteScope::kLocal, 0, {}};
  EXPECT_EQ(controller.push_op(op), TableOpStatus::kRateLimited);
  EXPECT_EQ(controller.deferred_op_count(), 1u);
  EXPECT_EQ(controller.breaker()->stats().short_circuited, 1u);
  EXPECT_EQ(controller.advance_clock(1.0), 0u);  // still open: no attempts

  // Cooldown elapses with the brownout still on: the half-open probe is
  // refused (the degraded channel, not the token bucket) and re-opens.
  EXPECT_EQ(controller.breaker()->state(5.0),
            CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(controller.advance_clock(5.0), 0u);
  EXPECT_EQ(controller.breaker()->stats().reopens, 1u);
  EXPECT_EQ(controller.breaker()->state(9.9), CircuitBreaker::State::kOpen);
  EXPECT_EQ(controller.deferred_op_count(), 1u);

  // Brownout lifts: the next probe succeeds, the breaker closes, and the
  // parked op finally lands on the device.
  controller.set_update_channel_degraded(false);
  EXPECT_EQ(controller.advance_clock(10.0), 1u);
  EXPECT_EQ(controller.breaker()->state(10.0),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(controller.breaker()->stats().closes, 1u);
  EXPECT_EQ(controller.deferred_op_count(), 0u);
  EXPECT_EQ(controller.cluster(0).route_count(), 3u);
}

// ---------------------------------------------------------------------------
// Chaos-layer integration: a scripted brownout against a full region.

core::SailfishOptions breaker_region_options(unsigned trip_after) {
  core::SailfishOptions options = core::quickstart_options();
  options.region.controller.breaker.trip_after = trip_after;
  options.region.controller.breaker.open_cooldown_s = 2.0;
  return options;
}

ChaosSchedule scripted_brownouts() {
  // Two overlapping brownout windows (both lift at t=10): the second
  // event's provisioning wave arrives while the breaker is already open,
  // so its pushes must short-circuit.
  ChaosEvent first;
  first.time = 2.0;
  first.kind = FaultKind::kControllerBrownout;
  first.count = 4;
  first.duration = 8.0;
  ChaosEvent second = first;
  second.time = 4.0;
  second.duration = 6.0;
  ChaosSchedule schedule;
  schedule.add(first);
  schedule.add(second);
  return schedule;
}

TEST(ControllerBrownout, InjectorTracksTransitionsAndConverges) {
  core::SailfishSystem system =
      core::make_system(breaker_region_options(/*trip_after=*/2));
  ChaosInjector injector(*system.region, system.flows, ChaosInjector::Config{});
  const ChaosReport report = injector.run(scripted_brownouts());

  EXPECT_EQ(report.events_applied, 2u);
  EXPECT_TRUE(report.converged()) << report.to_json();
  ASSERT_TRUE(report.breaker_tracked);
  EXPECT_GE(report.breaker_trips, 1u);
  EXPECT_GE(report.breaker_closes, 1u);
  EXPECT_GE(report.breaker_short_circuited, 1u);
  ASSERT_FALSE(report.breaker_transitions.empty());
  EXPECT_EQ(report.breaker_transitions.front().second, "open");
  EXPECT_EQ(report.breaker_transitions.back().second, "close");
  // The breaker can only close after the brownout lifts at t=10.
  EXPECT_GE(report.breaker_transitions.back().first, 10.0);
  for (const FaultRecord& fault : report.faults) {
    EXPECT_GE(fault.recovered_at, 10.0) << report.to_json();
  }
  // The channel and breaker must be left clean.
  EXPECT_FALSE(system.region->controller().update_channel_degraded());
  EXPECT_EQ(system.region->controller().deferred_op_count(), 0u);

  // The JSON carries the conditional breaker section.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"breaker\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker_transitions\""), std::string::npos);
}

TEST(ControllerBrownout, InjectorReplayIsDeterministic) {
  core::SailfishSystem a =
      core::make_system(breaker_region_options(/*trip_after=*/2));
  core::SailfishSystem b =
      core::make_system(breaker_region_options(/*trip_after=*/2));
  ChaosInjector injector_a(*a.region, a.flows, ChaosInjector::Config{});
  ChaosInjector injector_b(*b.region, b.flows, ChaosInjector::Config{});
  const ChaosReport ra = injector_a.run(scripted_brownouts());
  const ChaosReport rb = injector_b.run(scripted_brownouts());
  EXPECT_EQ(ra.to_json(), rb.to_json());
  EXPECT_EQ(injector_a.log().to_string(), injector_b.log().to_string());
}

TEST(ChaosGolden, ScriptedBrownoutReportAndLog) {
  core::SailfishSystem system =
      core::make_system(breaker_region_options(/*trip_after=*/2));
  ChaosInjector injector(*system.region, system.flows, ChaosInjector::Config{});
  const ChaosReport report = injector.run(scripted_brownouts());
  expect_golden("chaos_scripted_brownout.txt",
                report.to_json() + injector.log().to_string());
}

TEST(ControllerBrownout, BreakerlessControllerRidesTheRetryQueue) {
  // No breaker configured: the wave piles onto the retry queue, the
  // brownout lifts, and the queue drains — converged, and the report's
  // JSON must render without the breaker section (byte-stability for
  // pre-breaker consumers).
  core::SailfishSystem system = core::make_system(core::quickstart_options());
  ASSERT_EQ(system.region->controller().breaker(), nullptr);
  ChaosInjector injector(*system.region, system.flows, ChaosInjector::Config{});
  const ChaosReport report = injector.run(scripted_brownouts());
  EXPECT_TRUE(report.converged()) << report.to_json();
  EXPECT_FALSE(report.breaker_tracked);
  EXPECT_EQ(system.region->controller().deferred_op_count(), 0u);
  EXPECT_EQ(report.to_json().find("\"breaker\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Schedule face: drawn only on opt-in, so pre-existing seeds stay
// byte-identical.

TEST(ControllerBrownout, FaultKindRendersStably) {
  EXPECT_EQ(to_string(FaultKind::kControllerBrownout), "controller-brownout");
  ChaosEvent event;
  event.time = 3.5;
  event.kind = FaultKind::kControllerBrownout;
  event.duration = 8.0;
  EXPECT_NE(event.to_string().find("controller-brownout"), std::string::npos);
}

TEST(ControllerBrownout, RandomSchedulesGateTheBrownoutFace) {
  ChaosSchedule::RandomConfig shape;
  shape.events = 32;
  shape.horizon_s = 20.0;
  shape.controller_brownouts = true;
  bool drew_brownout = false;
  for (std::uint64_t seed = 1; seed <= 16 && !drew_brownout; ++seed) {
    drew_brownout = ChaosSchedule::random(seed, shape)
                        .to_string()
                        .find("controller-brownout") != std::string::npos;
  }
  EXPECT_TRUE(drew_brownout);

  // And schedules that don't opt in — every pre-existing (seed, config)
  // pair — keep drawing byte-identical events without the face.
  shape.controller_brownouts = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(ChaosSchedule::random(seed, shape)
                  .to_string()
                  .find("controller-brownout"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sf::chaos

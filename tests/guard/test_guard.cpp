// sf::guard unit tests: the token-bucket meters and degradation ladder,
// the bounded punt queue, and the update-channel circuit breaker.

#include "guard/guard.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "guard/circuit_breaker.hpp"
#include "guard/punt_queue.hpp"
#include "telemetry/registry.hpp"

namespace sf::guard {
namespace {

constexpr net::Vni kVni = 42;

TenantGuard::Config limited_config(double rate_bps, double rate_pps) {
  TenantGuard::Config config;
  config.tenants.push_back(TenantLimit{kVni, rate_bps, rate_pps});
  return config;
}

const std::function<bool()> kNeverEstablished = [] { return false; };
const std::function<bool()> kAlwaysEstablished = [] { return true; };

TEST(TenantGuard, UnmeteredTenantIsTransparent) {
  TenantGuard guard(limited_config(8000, 0));
  EXPECT_TRUE(guard.metered(kVni));
  EXPECT_FALSE(guard.metered(kVni + 1));
  // The other tenant is never throttled no matter the offered load.
  for (int i = 0; i < 1000; ++i) {
    const auto decision =
        guard.admit_packet(kVni + 1, 1500, 0.0, kNeverEstablished);
    EXPECT_TRUE(decision.admit);
    EXPECT_EQ(decision.tier, Tier::kFull);
  }
}

TEST(TenantGuard, ConformingTenantStaysFullService) {
  // 8000 bps = 1000 bytes/s; one 100-byte packet every 0.2 s conforms.
  TenantGuard guard(limited_config(8000, 0));
  for (int i = 0; i < 50; ++i) {
    const auto decision = guard.admit_packet(kVni, 100, 0.2 * i,
                                             kNeverEstablished);
    EXPECT_TRUE(decision.admit) << "packet " << i;
    EXPECT_EQ(decision.tier, Tier::kFull);
  }
  EXPECT_EQ(guard.tier_of(kVni), Tier::kFull);
  EXPECT_EQ(guard.stats().admitted, 50u);
}

TEST(TenantGuard, FloodWalksTheLadderTierByTier) {
  TenantGuard::Config config = limited_config(8000, 0);
  config.escalate_after = 3;
  TenantGuard guard(config);

  // Flood at one instant: the burst allowance (0.1 s = 100 bytes) admits
  // the first packet, then every packet is over-limit.
  std::vector<Tier> tiers;
  for (int i = 0; i < 8; ++i) {
    tiers.push_back(
        guard.admit_packet(kVni, 100, 0.0, kNeverEstablished).tier);
  }
  // Packet 0 admitted at tier 0; packets 1-3 over (escalate on the 3rd);
  // at tier 1 the streak restarts: packets 4-6 over, escalate on the 6th.
  EXPECT_EQ(tiers[0], Tier::kFull);
  EXPECT_EQ(tiers[3], Tier::kShedNewFlows);
  EXPECT_EQ(tiers[6], Tier::kShedTenant);
  EXPECT_EQ(guard.tier_of(kVni), Tier::kShedTenant);
  EXPECT_EQ(guard.stats().escalations, 2u);
}

TEST(TenantGuard, TierOneServesEstablishedPuntsTheRest) {
  TenantGuard::Config config = limited_config(8000, 0);
  config.escalate_after = 1;
  config.deescalate_after = 100;  // stay at tier 1 for the whole test
  TenantGuard guard(config);
  guard.admit_packet(kVni, 100, 0.0, kNeverEstablished);  // burst
  guard.admit_packet(kVni, 100, 0.0, kNeverEstablished);  // over -> tier 1

  // Conforming established packet at tier 1: served.
  auto established =
      guard.admit_packet(kVni, 50, 10.0, kAlwaysEstablished);
  EXPECT_TRUE(established.admit);
  EXPECT_EQ(established.tier, Tier::kShedNewFlows);

  // Conforming NEW flow at tier 1: punted, not dropped.
  auto fresh = guard.admit_packet(kVni, 50, 10.1, kNeverEstablished);
  EXPECT_FALSE(fresh.admit);
  EXPECT_TRUE(fresh.punt);
  EXPECT_EQ(fresh.drop_reason, dataplane::DropReason::kTenantNewFlowShed);
  EXPECT_EQ(guard.stats().established_served, 1u);
  // The escalating packet itself was also punted (tier 1, not established).
  EXPECT_EQ(guard.stats().punted, 2u);
}

TEST(TenantGuard, TierTwoShedsTheTenantOutright) {
  TenantGuard::Config config = limited_config(8000, 0);
  config.escalate_after = 1;
  TenantGuard guard(config);
  guard.admit_packet(kVni, 200, 0.0, kNeverEstablished);  // burst spent
  guard.admit_packet(kVni, 200, 0.0, kNeverEstablished);  // -> tier 1
  guard.admit_packet(kVni, 200, 0.0, kNeverEstablished);  // -> tier 2

  auto decision = guard.admit_packet(kVni, 50, 10.0, kAlwaysEstablished);
  EXPECT_FALSE(decision.admit);
  EXPECT_FALSE(decision.punt);
  EXPECT_EQ(decision.drop_reason, dataplane::DropReason::kTenantShed);
  EXPECT_GE(guard.stats().shed_tenant, 1u);
}

TEST(TenantGuard, ConformingStreakDeescalates) {
  TenantGuard::Config config = limited_config(8000, 0);
  config.escalate_after = 1;
  config.deescalate_after = 2;
  TenantGuard guard(config);
  // A 200-byte packet against a 100-byte burst is over-limit at once.
  guard.admit_packet(kVni, 200, 0.0, kNeverEstablished);  // -> tier 1
  ASSERT_EQ(guard.tier_of(kVni), Tier::kShedNewFlows);

  // Two conforming established packets, well spaced: back to tier 0.
  guard.admit_packet(kVni, 50, 10.0, kAlwaysEstablished);
  guard.admit_packet(kVni, 50, 20.0, kAlwaysEstablished);
  EXPECT_EQ(guard.tier_of(kVni), Tier::kFull);
  EXPECT_EQ(guard.stats().deescalations, 1u);
}

TEST(TenantGuard, IntervalStepShedsOverLimitFractionally) {
  TenantGuard::Config config = limited_config(1e6, 0);  // 1 Mbps budget
  config.escalate_after = 1;
  TenantGuard guard(config);

  telemetry::Registry registry;
  std::vector<TenantGuard::TenantInterval> out;
  std::map<net::Vni, TenantGuard::Offered> offered;
  offered[kVni] = TenantGuard::Offered{1000.0, 4e6};  // 4x over budget

  const auto fractions =
      guard.interval_step(offered, out, registry);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vni, kVni);
  EXPECT_EQ(out[0].tier, Tier::kShedNewFlows);
  // Tier 1 admits the in-budget fraction: 1/4 of the offered rate.
  EXPECT_DOUBLE_EQ(fractions.at(kVni), 0.25);
  EXPECT_DOUBLE_EQ(out[0].shed_pps, 750.0);
}

TEST(TenantGuard, IntervalAbsenceWalksBackDown) {
  TenantGuard::Config config = limited_config(1e6, 0);
  config.escalate_after = 1;
  config.deescalate_after = 2;
  TenantGuard guard(config);

  telemetry::Registry registry;
  std::vector<TenantGuard::TenantInterval> out;
  std::map<net::Vni, TenantGuard::Offered> storm;
  storm[kVni] = TenantGuard::Offered{1000.0, 8e6};
  guard.interval_step(storm, out, registry);  // -> tier 1
  guard.interval_step(storm, out, registry);  // -> tier 2
  EXPECT_EQ(guard.tier_of(kVni), Tier::kShedTenant);

  // The storm stops: the tenant vanishes from the offered map, and every
  // quiet interval counts as conforming.
  const std::map<net::Vni, TenantGuard::Offered> quiet;
  for (int i = 0; i < 4; ++i) {
    out.clear();
    guard.interval_step(quiet, out, registry);
    ASSERT_EQ(out.size(), 1u);  // still reported while walking down
  }
  EXPECT_EQ(guard.tier_of(kVni), Tier::kFull);
}

TEST(TenantGuard, SetLimitResetsLadderState) {
  TenantGuard::Config config = limited_config(8000, 0);
  config.escalate_after = 1;
  TenantGuard guard(config);
  guard.admit_packet(kVni, 200, 0.0, kNeverEstablished);
  guard.admit_packet(kVni, 200, 0.0, kNeverEstablished);
  ASSERT_NE(guard.tier_of(kVni), Tier::kFull);
  guard.set_limit(TenantLimit{kVni, 1e9, 0});
  EXPECT_EQ(guard.tier_of(kVni), Tier::kFull);
}

TEST(TenantGuard, IntervalStepReportsEveryMeteredTenantInVniOrder) {
  // Limits listed out of VNI order, one unmetered entry among them.
  TenantGuard::Config config;
  config.escalate_after = 1;
  config.tenants = {TenantLimit{900, 1e6, 0}, TenantLimit{7, 1e6, 0},
                    TenantLimit{300, 0, 0}, TenantLimit{55, 0, 100}};
  TenantGuard guard(config);

  telemetry::Registry registry;
  std::vector<TenantGuard::TenantInterval> out;
  std::map<net::Vni, TenantGuard::Offered> offered;
  offered[900] = TenantGuard::Offered{10.0, 4e6};  // over on bps
  offered[55] = TenantGuard::Offered{400.0, 1e3};  // over on pps
  offered[300] = TenantGuard::Offered{1e6, 1e9};   // unmetered
  // VNI 7 offers nothing and is stepped as conforming.

  const auto fractions = guard.interval_step(offered, out, registry);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].vni, 7u);
  EXPECT_EQ(out[1].vni, 55u);
  EXPECT_EQ(out[2].vni, 900u);
  EXPECT_EQ(out[0].tier, Tier::kFull);
  EXPECT_EQ(out[1].tier, Tier::kShedNewFlows);
  EXPECT_EQ(out[2].tier, Tier::kShedNewFlows);
  EXPECT_DOUBLE_EQ(out[0].offered_pps, 0.0);
  EXPECT_DOUBLE_EQ(out[2].offered_bps, 4e6);

  ASSERT_EQ(fractions.size(), 3u);
  EXPECT_FALSE(fractions.contains(300));
  EXPECT_DOUBLE_EQ(fractions.at(7), 1.0);
  EXPECT_DOUBLE_EQ(fractions.at(55), 0.25);
  EXPECT_DOUBLE_EQ(fractions.at(900), 0.25);

  EXPECT_EQ(registry.counter("guard.interval.over").value(), 2u);
  EXPECT_EQ(registry.counter("guard.interval.escalations").value(), 2u);
}

TEST(TenantGuard, IntervalStepMetersDefaultRateTenants) {
  // No listed tenants: VNI 5 is metered by the default budget alone and
  // has never sent a packet, so only the interval step can meter it.
  TenantGuard::Config config;
  config.default_rate_bps = 1e6;
  TenantGuard guard(config);
  ASSERT_TRUE(guard.metered(5));

  telemetry::Registry registry;
  std::vector<TenantGuard::TenantInterval> out;
  std::map<net::Vni, TenantGuard::Offered> offered;
  offered[5] = TenantGuard::Offered{1000.0, 4e6};  // 4x over budget

  std::vector<double> admitted;
  for (int step = 0; step < 3; ++step) {
    const auto fractions = guard.interval_step(offered, out, registry);
    ASSERT_EQ(fractions.size(), 1u) << "step " << step;
    admitted.push_back(fractions.at(5));
  }
  ASSERT_EQ(out.size(), 3u);
  for (const TenantGuard::TenantInterval& summary : out) {
    EXPECT_EQ(summary.vni, 5u);
    EXPECT_DOUBLE_EQ(summary.offered_bps, 4e6);
  }
  EXPECT_EQ(out[0].tier, Tier::kShedNewFlows);
  EXPECT_EQ(out[1].tier, Tier::kShedTenant);
  EXPECT_EQ(out[2].tier, Tier::kShedTenant);
  EXPECT_EQ(admitted, (std::vector<double>{0.25, 0.0, 0.0}));
  EXPECT_EQ(guard.tier_of(5), Tier::kShedTenant);
  EXPECT_EQ(registry.counter("guard.interval.escalations").value(), 2u);
}

TEST(TenantGuard, ValidatesConfig) {
  TenantGuard::Config bad;
  bad.burst_seconds = 0;
  EXPECT_THROW(TenantGuard{bad}, std::invalid_argument);
  bad = TenantGuard::Config{};
  bad.escalate_after = 0;
  EXPECT_THROW(TenantGuard{bad}, std::invalid_argument);
}

// ---- PuntQueue -----------------------------------------------------------

TEST(PuntQueue, AdmitsUntilDepthThenOverflows) {
  PuntQueue::Config config;
  config.depth_packets = 3;
  config.drain_pps = 1.0;  // effectively no drain within one instant
  PuntQueue queue(config);
  EXPECT_TRUE(queue.offer(0, 0, 0.0).admitted);
  EXPECT_TRUE(queue.offer(0, 0, 0.0).admitted);
  EXPECT_TRUE(queue.offer(0, 0, 0.0).admitted);
  EXPECT_FALSE(queue.offer(0, 0, 0.0).admitted);
  EXPECT_EQ(queue.stats().admitted, 3u);
  EXPECT_EQ(queue.stats().overflowed, 1u);
}

TEST(PuntQueue, DrainsOverTimeAndChargesQueueingDelay) {
  PuntQueue::Config config;
  config.depth_packets = 10;
  config.drain_pps = 2.0;
  PuntQueue queue(config);
  const auto first = queue.offer(0, 0, 0.0);
  EXPECT_TRUE(first.admitted);
  // Occupancy 1 at 2 pps: 0.5 s = 500000 us of modeled delay.
  EXPECT_DOUBLE_EQ(first.queue_delay_us, 5e5);
  // After 10 s the lane has fully drained.
  EXPECT_DOUBLE_EQ(queue.occupancy(0, 0, 10.0), 0.0);
  const auto later = queue.offer(0, 0, 10.0);
  EXPECT_DOUBLE_EQ(later.queue_delay_us, 5e5);
}

TEST(PuntQueue, LanesAreIndependent) {
  PuntQueue::Config config;
  config.depth_packets = 1;
  config.drain_pps = 1e-6;
  PuntQueue queue(config);
  EXPECT_TRUE(queue.offer(0, 0, 0.0).admitted);
  EXPECT_FALSE(queue.offer(0, 0, 0.0).admitted);  // lane (0,0) full
  EXPECT_TRUE(queue.offer(0, 1, 0.0).admitted);   // lane (0,1) untouched
  EXPECT_TRUE(queue.offer(1, 0, 0.0).admitted);
}

TEST(PuntQueue, BackwardClockDrainsNothing) {
  PuntQueue::Config config;
  config.depth_packets = 2;
  config.drain_pps = 1000.0;
  PuntQueue queue(config);
  EXPECT_TRUE(queue.offer(0, 0, 5.0).admitted);
  // Clock steps backwards (replayed schedule): occupancy must not go
  // negative or spuriously drain.
  EXPECT_DOUBLE_EQ(queue.occupancy(0, 0, 1.0), 1.0);
  EXPECT_TRUE(queue.offer(0, 0, 1.0).admitted);
  EXPECT_FALSE(queue.offer(0, 0, 1.0).admitted);
}

TEST(PuntQueue, HighWatermarkRemembersTheDeepestLane) {
  PuntQueue::Config config;
  config.depth_packets = 10;
  config.drain_pps = 1.0;
  PuntQueue queue(config);
  queue.offer(0, 0, 0.0);
  queue.offer(0, 0, 0.0);
  queue.offer(0, 0, 0.0);
  queue.offer(0, 1, 0.0);  // a shallower lane must not lower the mark
  EXPECT_DOUBLE_EQ(queue.stats().high_watermark, 3.0);
  EXPECT_DOUBLE_EQ(queue.max_occupancy(0.0), 3.0);

  // Draining pulls the live occupancy down, but the watermark is sticky.
  EXPECT_DOUBLE_EQ(queue.max_occupancy(2.0), 1.0);
  EXPECT_DOUBLE_EQ(queue.stats().high_watermark, 3.0);
}

TEST(PuntQueue, ValidatesConfig) {
  PuntQueue::Config bad;
  bad.depth_packets = 0;
  EXPECT_THROW(PuntQueue{bad}, std::invalid_argument);
  bad = PuntQueue::Config{};
  bad.drain_pps = 0;
  EXPECT_THROW(PuntQueue{bad}, std::invalid_argument);
}

// ---- CircuitBreaker ------------------------------------------------------

TEST(CircuitBreaker, DisabledBreakerAlwaysAllows) {
  CircuitBreaker breaker;  // trip_after = 0
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 10; ++i) breaker.record_failure(0.0);
  EXPECT_TRUE(breaker.allow(0.0));
  EXPECT_EQ(breaker.stats().trips, 0u);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreaker breaker(CircuitBreaker::Config{3, 1.0});
  breaker.record_failure(0.0);
  breaker.record_failure(0.1);
  breaker.record_success(0.2);  // streak broken
  breaker.record_failure(0.3);
  breaker.record_failure(0.4);
  EXPECT_TRUE(breaker.allow(0.5));
  breaker.record_failure(0.5);  // third consecutive
  EXPECT_EQ(breaker.state(0.5), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(0.5));
  EXPECT_EQ(breaker.stats().trips, 1u);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  CircuitBreaker breaker(CircuitBreaker::Config{1, 2.0});
  breaker.record_failure(0.0);
  EXPECT_EQ(breaker.state(1.0), CircuitBreaker::State::kOpen);
  // Cooldown elapses: half-open lets the probe through.
  EXPECT_EQ(breaker.state(2.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(2.0));
  breaker.record_success(2.0);
  EXPECT_EQ(breaker.state(2.0), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1u);
}

TEST(CircuitBreaker, HalfOpenProbeReopensOnFailure) {
  CircuitBreaker breaker(CircuitBreaker::Config{1, 2.0});
  breaker.record_failure(0.0);
  ASSERT_EQ(breaker.state(2.0), CircuitBreaker::State::kHalfOpen);
  breaker.record_failure(2.0);
  EXPECT_EQ(breaker.state(2.0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(3.9), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(4.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.stats().reopens, 1u);
}

TEST(CircuitBreaker, TierNamesAreStable) {
  EXPECT_STREQ(name(CircuitBreaker::State::kClosed), "closed");
  EXPECT_STREQ(name(CircuitBreaker::State::kOpen), "open");
  EXPECT_STREQ(name(CircuitBreaker::State::kHalfOpen), "half-open");
  EXPECT_STREQ(name(Tier::kFull), "full-service");
  EXPECT_STREQ(name(Tier::kShedNewFlows), "shed-new-flows");
  EXPECT_STREQ(name(Tier::kShedTenant), "shed-tenant");
}

}  // namespace
}  // namespace sf::guard

#include "x86/queue_sim.hpp"

#include <gtest/gtest.h>

#include "x86/cost_model.hpp"

namespace sf::x86 {
namespace {

CoreQueueSim::Config fast_config() {
  CoreQueueSim::Config config;
  config.service_pps = 100'000;  // cheap to simulate
  config.ring_slots = 512;
  config.base_latency_us = 30;
  return config;
}

TEST(CoreQueueSim, LightLoadSitsAtBaseLatency) {
  CoreQueueSim sim(fast_config());
  const auto result = sim.run(/*offered_pps=*/10'000, /*duration_s=*/5);
  EXPECT_EQ(result.packets_dropped, 0u);
  // Service time is 10 us; at rho=0.1 queueing adds ~0.5 us on average.
  EXPECT_NEAR(result.mean_latency_us, 30 + 10 + 0.6, 1.0);
}

TEST(CoreQueueSim, MatchesMd1MeanAtHalfLoad) {
  // M/D/1 mean wait: W = rho / (2 (1 - rho)) * service_time.
  CoreQueueSim sim(fast_config());
  const double service_us = 1e6 / fast_config().service_pps;
  const double rho = 0.5;
  const auto result = sim.run(rho * fast_config().service_pps, 30);
  const double expected_wait = rho / (2 * (1 - rho)) * service_us;
  EXPECT_NEAR(result.mean_latency_us - 30 - service_us, expected_wait,
              expected_wait * 0.25);
  EXPECT_EQ(result.packets_dropped, 0u);
}

TEST(CoreQueueSim, LatencyGrowsWithUtilization) {
  CoreQueueSim sim(fast_config());
  double previous = 0;
  for (double rho : {0.3, 0.6, 0.9}) {
    const auto result = sim.run(rho * fast_config().service_pps, 20);
    EXPECT_GT(result.mean_latency_us, previous) << rho;
    previous = result.mean_latency_us;
  }
}

TEST(CoreQueueSim, TailIsHeavierThanMedian) {
  CoreQueueSim sim(fast_config());
  const auto result = sim.run(0.8 * fast_config().service_pps, 20);
  EXPECT_GE(result.p99_latency_us, result.p50_latency_us);
  EXPECT_GE(result.p50_latency_us, 30.0);
}

TEST(CoreQueueSim, OverloadDropsAtTheExpectedRate) {
  CoreQueueSim sim(fast_config());
  // 1.5x the core's capacity: ~1/3 of packets must drop once the ring
  // fills (§2.3's overloaded heavy-hitter core).
  const auto result = sim.run(1.5 * fast_config().service_pps, 30);
  EXPECT_NEAR(result.drop_rate, 1.0 / 3.0, 0.05);
}

TEST(CoreQueueSim, SmallRingDropsOnBursts) {
  CoreQueueSim::Config tiny = fast_config();
  tiny.ring_slots = 4;
  CoreQueueSim sim(tiny);
  // Below capacity on average, but Poisson bursts overflow a 4-slot ring.
  const auto result = sim.run(0.9 * tiny.service_pps, 30);
  EXPECT_GT(result.drop_rate, 0.0);
  EXPECT_LT(result.drop_rate, 0.2);
}

TEST(CoreQueueSim, DeterministicPerSeed) {
  CoreQueueSim sim(fast_config());
  const auto a = sim.run(50'000, 5, 7);
  const auto b = sim.run(50'000, 5, 7);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  const auto c = sim.run(50'000, 5, 8);
  EXPECT_NE(a.packets_offered, c.packets_offered);
}

TEST(CoreQueueSim, ValidatesConfigAndArguments) {
  CoreQueueSim::Config bad = fast_config();
  bad.service_pps = 0;
  EXPECT_THROW(CoreQueueSim{bad}, std::invalid_argument);
  CoreQueueSim sim(fast_config());
  EXPECT_THROW(sim.run(0, 1), std::invalid_argument);
  EXPECT_THROW(sim.run(1000, 0), std::invalid_argument);
}

TEST(CoreQueueSim, ConsistentWithClosedFormModel) {
  // The cost model's latency_us() is flat at its base up to half load,
  // where it matches this sim's mean, and from 60% to 80% load it tracks
  // the sim's p99. Past 80% the sim's tail outruns the linear model.
  const X86CostModel model;
  CoreQueueSim::Config config;
  config.service_pps = model.core_pps();
  config.ring_slots = 1024;
  config.base_latency_us = model.base_latency_us - 2;
  CoreQueueSim sim(config);
  for (double rho : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    const auto result = sim.run(rho * model.core_pps(), 2);
    EXPECT_NEAR(result.mean_latency_us, model.latency_us(rho), 1.0) << rho;
  }
  for (double rho : {0.6, 0.7, 0.8}) {
    const auto result = sim.run(rho * model.core_pps(), 2);
    EXPECT_NEAR(result.p99_latency_us, model.latency_us(rho), 2.0) << rho;
  }
}

}  // namespace
}  // namespace sf::x86

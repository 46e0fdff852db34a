// sf::dpu::TierPlacer — the promotion/demotion policy in isolation:
// elephants promote in estimate order under the per-interval budget, idle
// flows demote after the configured patience, refused installs leave
// flows unplaced, and the whole pass is a deterministic function of the
// observations regardless of feed order.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dpu/tier_placer.hpp"

namespace sf::dpu {
namespace {

telemetry::FlowKey key_n(net::Vni vni, std::uint16_t n) {
  telemetry::FlowKey key;
  key.vni = vni;
  key.tuple.src = net::IpAddr(net::Ipv4Addr(10, 1, 0, 1));
  key.tuple.dst = net::IpAddr(net::Ipv4Addr(10, 1, 0, 2));
  key.tuple.proto = 17;
  key.tuple.src_port = n;
  key.tuple.dst_port = 4789;
  return key;
}

TierPlacer::Config small_config() {
  TierPlacer::Config config;
  config.tracker.capacity = 16;
  config.promote_min_pps = 1000;
  config.max_promote_per_interval = 64;
  config.demote_after_idle = 2;
  return config;
}

/// Feeds one interval of observations and applies with always-succeeding callbacks, returning the pass result.
TierPlacer::ApplyResult run_interval(
    TierPlacer& placer,
    const std::vector<std::pair<telemetry::FlowKey, std::uint64_t>>& obs) {
  placer.begin_interval();
  for (const auto& [key, pps] : obs) placer.observe(key, pps);
  return placer.apply(
      [](const telemetry::FlowKey&, std::size_t) { return true; },
      [](const telemetry::FlowKey&, std::size_t) {});
}

TEST(TierPlacer, PromotesElephantsNotMice) {
  TierPlacer placer(small_config(), 4, 2);
  const auto result = run_interval(placer, {{key_n(1, 1), 50'000},
                                            {key_n(1, 2), 40'000},
                                            {key_n(2, 3), 300}});
  EXPECT_EQ(result.promoted, 2u);
  EXPECT_EQ(result.demoted, 0u);
  EXPECT_TRUE(placer.placement(key_n(1, 1)).has_value());
  EXPECT_TRUE(placer.placement(key_n(1, 2)).has_value());
  EXPECT_FALSE(placer.placement(key_n(2, 3)).has_value());  // mouse
  EXPECT_EQ(placer.placed_count(), 2u);
}

TEST(TierPlacer, BudgetTakesHeaviestFirst) {
  TierPlacer::Config config = small_config();
  config.max_promote_per_interval = 2;
  TierPlacer placer(config, 4, 2);
  const auto result = run_interval(placer, {{key_n(1, 1), 10'000},
                                            {key_n(1, 2), 90'000},
                                            {key_n(1, 3), 50'000}});
  EXPECT_EQ(result.promoted, 2u);
  EXPECT_TRUE(placer.placement(key_n(1, 2)).has_value());
  EXPECT_TRUE(placer.placement(key_n(1, 3)).has_value());
  EXPECT_FALSE(placer.placement(key_n(1, 1)).has_value());

  // The lightest elephant gets its entry on the next interval.
  const auto next = run_interval(placer, {{key_n(1, 1), 10'000},
                                          {key_n(1, 2), 90'000},
                                          {key_n(1, 3), 50'000}});
  EXPECT_EQ(next.promoted, 1u);
  EXPECT_TRUE(placer.placement(key_n(1, 1)).has_value());
}

TEST(TierPlacer, DemotesAfterIdlePatience) {
  TierPlacer placer(small_config(), 4, 2);
  run_interval(placer, {{key_n(1, 1), 50'000}});
  ASSERT_TRUE(placer.placement(key_n(1, 1)).has_value());

  std::vector<telemetry::FlowKey> removed;
  // Interval with no traffic for the flow: sketch decays, estimate falls
  // below the threshold — one idle strike, still placed.
  placer.begin_interval();
  auto result = placer.apply(
      [](const telemetry::FlowKey&, std::size_t) { return true; },
      [&](const telemetry::FlowKey& key, std::size_t) {
        removed.push_back(key);
      });
  // The decayed estimate may still sit above the threshold after one
  // interval; demotion must land within the configured patience.
  for (int interval = 0;
       interval < 8 && placer.placement(key_n(1, 1)).has_value();
       ++interval) {
    placer.begin_interval();
    result = placer.apply(
        [](const telemetry::FlowKey&, std::size_t) { return true; },
        [&](const telemetry::FlowKey& key, std::size_t) {
          removed.push_back(key);
        });
  }
  EXPECT_FALSE(placer.placement(key_n(1, 1)).has_value());
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], key_n(1, 1));
  EXPECT_EQ(placer.placed_count(), 0u);
}

TEST(TierPlacer, RefusedInstallLeavesFlowUnplaced) {
  TierPlacer placer(small_config(), 4, 2);
  const auto refused_all = [&] {
    placer.begin_interval();
    placer.observe(key_n(1, 1), 50'000);
    return placer.apply(
        [](const telemetry::FlowKey&, std::size_t) { return false; },
        [](const telemetry::FlowKey&, std::size_t) {});
  }();
  EXPECT_EQ(refused_all.promoted, 0u);
  EXPECT_EQ(refused_all.refused, 1u);
  EXPECT_EQ(placer.placed_count(), 0u);
}

TEST(TierPlacer, EvictNodeAndVniForgetPlacements) {
  TierPlacer placer(small_config(), 4, 2);
  run_interval(placer, {{key_n(1, 1), 50'000},
                        {key_n(2, 2), 60'000},
                        {key_n(3, 3), 70'000}});
  ASSERT_EQ(placer.placed_count(), 3u);
  const std::size_t node = *placer.placement(key_n(1, 1));
  const std::size_t on_node = placer.placed_on(node);
  EXPECT_EQ(placer.evict_node(node), on_node);
  EXPECT_FALSE(placer.placement(key_n(1, 1)).has_value());
  EXPECT_EQ(placer.placed_on(node), 0u);

  const std::size_t rest = placer.placed_count();
  if (placer.placement(key_n(2, 2)).has_value()) {
    EXPECT_EQ(placer.evict_vni(2), 1u);
    EXPECT_EQ(placer.placed_count(), rest - 1);
  }
}

TEST(TierPlacer, ApplyIsIndependentOfObservationOrder) {
  // Same observations fed in opposite orders must yield the same
  // placements and the same node assignments: apply() ranks candidates by
  // (estimate, vni, tuple), never by arrival.
  std::vector<std::pair<telemetry::FlowKey, std::uint64_t>> obs;
  for (std::uint16_t n = 0; n < 32; ++n) {
    obs.emplace_back(key_n(1 + n % 7, n), 1'000 + 7'000ull * n);
  }
  TierPlacer forward(small_config(), 8, 3);
  TierPlacer backward(small_config(), 8, 3);
  run_interval(forward, obs);
  std::reverse(obs.begin(), obs.end());
  run_interval(backward, obs);

  ASSERT_EQ(forward.placed_count(), backward.placed_count());
  std::string render_forward;
  std::string render_backward;
  for (const auto& [key, pps] : obs) {
    const auto a = forward.placement(key);
    const auto b = backward.placement(key);
    render_forward += a ? std::to_string(*a) : "-";
    render_backward += b ? std::to_string(*b) : "-";
  }
  EXPECT_EQ(render_forward, render_backward);
}

}  // namespace
}  // namespace sf::dpu

// SNAT port-block lifecycle under soak-style interval driving (DESIGN.md
// §17): sessions created across many intervals expire on their own
// schedule, freed ports recycle in strict FIFO order while the pool runs
// at exhaustion, and the whole history conserves the pool — every port is
// either free or backing a live session (allocated == recycled + live).

#include "x86/snat.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

namespace sf::x86 {
namespace {

constexpr double kInterval = 600.0;

net::FiveTuple session(std::uint32_t id) {
  net::FiveTuple tuple;
  tuple.src = net::IpAddr(net::Ipv4Addr(0x64400000u | (id & 0xfffffu)));
  tuple.dst = net::IpAddr(net::Ipv4Addr(192, 0, 2, 10));
  tuple.proto = 6;
  tuple.src_port = static_cast<std::uint16_t>(1024 + (id >> 20) % 60000);
  tuple.dst_port = 443;
  return tuple;
}

std::size_t total_free(const SnatEngine& snat,
                       const SnatEngine::Config& config) {
  std::size_t free = 0;
  for (const net::Ipv4Addr& ip : config.public_ips) {
    free += snat.free_ports(ip);
  }
  return free;
}

TEST(SnatLifecycle, MultiIntervalExpiry) {
  SnatEngine::Config config;
  config.public_ips = {net::Ipv4Addr(198, 51, 100, 1)};
  config.port_min = 1024;
  config.port_max = 1123;  // 100 ports
  config.session_timeout_s = 1.5 * kInterval;
  SnatEngine snat(config);

  // Ten sessions per interval for four intervals; each batch must expire
  // exactly one timeout after its own interval, not the latest one.
  std::uint32_t next_id = 0;
  for (int interval = 0; interval < 4; ++interval) {
    const double t = kInterval * interval;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(snat.translate(session(next_id++), t).has_value());
    }
    // Expiry sweep at the end of each interval, soak-style: batches 0..k-2
    // are older than timeout (1.5 intervals) by the end of interval k.
    const std::size_t reclaimed = snat.expire(t + kInterval);
    if (interval == 0) {
      EXPECT_EQ(reclaimed, 0u);  // only 1.0 interval old
    } else {
      EXPECT_EQ(reclaimed, 10u) << "batch " << interval - 1;
    }
  }
  EXPECT_EQ(snat.stats().active_sessions, 10u);  // only the last batch
  EXPECT_EQ(snat.stats().expired_sessions, 30u);

  // A touched session survives sweeps that reclaim its batch-mates.
  const auto kept = snat.translate(session(30), 4.0 * kInterval);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(snat.expire(5.0 * kInterval), 9u);
  EXPECT_EQ(snat.stats().active_sessions, 1u);
  EXPECT_TRUE(snat.translate(session(30), 5.0 * kInterval).has_value());
  EXPECT_EQ(snat.stats().active_sessions, 1u);
}

TEST(SnatLifecycle, FifoRecyclingUnderExhaustion) {
  SnatEngine::Config config;
  config.public_ips = {net::Ipv4Addr(198, 51, 100, 2)};
  config.port_min = 2000;
  config.port_max = 2003;  // four ports
  config.session_timeout_s = kInterval;
  SnatEngine snat(config);

  // Fill the pool with staggered creation times so later sweeps can age
  // out exactly one session each.
  std::vector<std::uint16_t> port(4);
  for (std::uint32_t id = 0; id < 4; ++id) {
    const auto binding = snat.translate(session(id), 10.0 * id);
    ASSERT_TRUE(binding.has_value());
    port[id] = binding->public_port;
  }
  EXPECT_EQ(total_free(snat, config), 0u);

  // Pool dry: a new session fails typed, existing ones keep translating.
  AllocFailure failure = AllocFailure::kNone;
  EXPECT_FALSE(snat.translate(session(900), 100.0, &failure));
  EXPECT_EQ(failure, AllocFailure::kPortBlockExhausted);
  EXPECT_TRUE(snat.translate(session(0), 100.0).has_value());
  // (The touch above refreshed session 0: it now outlives its batch.)

  // One-at-a-time aging: each replacement session must get the port that
  // was freed longest ago — strict FIFO through the free list.
  EXPECT_EQ(snat.expire(kInterval + 15.0), 1u);  // frees session 1
  EXPECT_EQ(snat.expire(kInterval + 25.0), 1u);  // frees session 2
  // Two ports free, freed in the order [port1, port2]: a LIFO free list
  // would hand out port2 first.
  const auto first = snat.translate(session(1000), kInterval + 30.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->public_port, port[1]);
  const auto second = snat.translate(session(1001), kInterval + 31.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->public_port, port[2]);
  EXPECT_EQ(total_free(snat, config), 0u);

  // Under continued pressure the cycle repeats: session 3 ages out, its
  // port is recycled to the next arrival.
  EXPECT_EQ(snat.expire(kInterval + 45.0), 1u);
  const auto third = snat.translate(session(1002), kInterval + 50.0);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->public_port, port[3]);
}

TEST(SnatLifecycle, ExpiryReleasesPortsInSlotOrder) {
  SnatEngine::Config config;
  config.public_ips = {net::Ipv4Addr(198, 51, 100, 5)};
  config.port_min = 4000;
  config.port_max = 4003;  // four ports
  config.session_timeout_s = kInterval;
  SnatEngine snat(config);

  // Sessions 0..3 take slots 0..3 and ports 4000..4003. Sessions 0 and 1
  // expire; the replacements reuse slot 1 (port 4000), then slot 0 (port
  // 4001), so slot order no longer matches port order.
  for (std::uint32_t id = 0; id < 4; ++id) {
    ASSERT_EQ(snat.translate(session(id), id < 2 ? 0.0 : 500.0)->public_port,
              4000 + id);
  }
  ASSERT_EQ(snat.expire(kInterval + 1.0), 2u);
  ASSERT_EQ(snat.translate(session(10), 700.0)->public_port, 4000);
  ASSERT_EQ(snat.translate(session(11), 700.0)->public_port, 4001);

  // Expire every session at once: ports return to the free block in slot
  // order (4001, 4000, 4002, 4003) and are handed out again in that order.
  ASSERT_EQ(snat.expire(1e9), 4u);
  EXPECT_EQ(total_free(snat, config), 4u);
  std::vector<std::uint16_t> reissued;
  for (std::uint32_t id = 20; id < 24; ++id) {
    reissued.push_back(snat.translate(session(id), 2e9)->public_port);
  }
  EXPECT_EQ(reissued, (std::vector<std::uint16_t>{4001, 4000, 4002, 4003}));
}

TEST(SnatLifecycle, LeakAuditAllocatedEqualsRecycledPlusLive) {
  SnatEngine::Config config;
  config.public_ips = {net::Ipv4Addr(198, 51, 100, 3),
                       net::Ipv4Addr(198, 51, 100, 4)};
  config.port_min = 3000;
  config.port_max = 3049;  // 50 ports x 2 IPs
  config.session_timeout_s = 1.5 * kInterval;
  SnatEngine snat(config);
  const std::size_t capacity = snat.capacity();
  ASSERT_EQ(capacity, 100u);

  // A compressed soak: 40 intervals of allocations — 60 attempts against
  // a pool whose ~2-interval session lifetime sustains at most 100 live,
  // so exhaustion refusals are guaranteed — an expiry sweep per interval,
  // reverse-path touches. The conservation invariant the soak auditor
  // checks between intervals must hold at every boundary:
  // free + live == capacity.
  std::uint32_t next_id = 0;
  std::vector<SnatBinding> bindings;
  for (int interval = 0; interval < 40; ++interval) {
    const double t0 = kInterval * interval;
    for (int i = 0; i < 60; ++i) {
      const auto binding = snat.translate(session(next_id++), t0 + i);
      if (binding) bindings.push_back(*binding);
    }
    // Exercise the reverse path on a recent binding (refreshes idle time
    // through the same conservation-relevant bookkeeping).
    if (!bindings.empty()) {
      snat.reverse(bindings.back(), net::IpAddr(net::Ipv4Addr(192, 0, 2, 10)),
                   443, t0 + 10.0);
    }
    snat.expire(t0 + kInterval);
    EXPECT_EQ(total_free(snat, config) + snat.stats().active_sessions,
              capacity)
        << "interval " << interval;
  }
  const SnatEngine::Stats stats = snat.stats();
  EXPECT_GT(stats.expired_sessions, 0u);
  EXPECT_GT(stats.port_block_exhaustions, 0u);
  // Global ledger: every allocation ever made is either still live or was
  // recycled by expiry. (Allocations = attempts - failures.)
  const std::size_t attempts = 40u * 60u;
  EXPECT_EQ(attempts - stats.allocation_failures,
            stats.active_sessions + stats.expired_sessions);
  // Drain everything: the pool must return to pristine.
  snat.expire(1e9);
  EXPECT_EQ(snat.stats().active_sessions, 0u);
  EXPECT_EQ(total_free(snat, config), capacity);
}

}  // namespace
}  // namespace sf::x86

// Flow-cache coherence: a cached gateway must be observationally
// indistinguishable from an uncached one — identical verdict streams AND
// identical telemetry registries — across table inserts/removes/updates,
// ACL changes, DR standby swaps and health reroutes. The epoch-based lazy
// invalidation makes this hold by construction; these tests drive every
// mutation source against paired cached/uncached twins to prove it.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "dataplane/shard_engine.hpp"
#include "telemetry/export.hpp"
#include "x86/xgw_x86.hpp"
#include "xgwh/xgwh.hpp"

namespace sf {
namespace {

using dataplane::Verdict;
using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;
using tables::VmNcAction;
using tables::VmNcKey;
using tables::VxlanRouteAction;

xgwh::XgwH::Config hw_config(std::size_t cache_entries) {
  xgwh::XgwH::Config config;
  config.flow_cache_entries = cache_entries;
  return config;
}

void install_tables(dataplane::TableProgrammer& gw) {
  gw.install_route(10, IpPrefix::must_parse("192.168.10.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  gw.install_route(10, IpPrefix::must_parse("192.168.30.0/24"),
                   VxlanRouteAction{RouteScope::kPeer, 11, {}});
  gw.install_route(11, IpPrefix::must_parse("192.168.30.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 11)});
  gw.install_mapping(VmNcKey{11, IpAddr::must_parse("192.168.30.5")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 15)});
}

net::OverlayPacket flow_packet(net::Vni vni, std::uint8_t src_octet,
                               const char* dst, std::uint16_t src_port,
                               std::uint16_t payload = 200) {
  net::OverlayPacket pkt;
  pkt.vni = vni;
  pkt.inner.src = IpAddr(net::Ipv4Addr(192, 168, 10, src_octet));
  pkt.inner.dst = IpAddr::must_parse(dst);
  pkt.inner.proto = 6;
  pkt.inner.src_port = src_port;
  pkt.inner.dst_port = 80;
  pkt.payload_size = payload;
  return pkt;
}

/// A small mixed workload: local hits, peered hits, fallback (unresolved
/// NC), no-route drops — revisited repeatedly so the cache actually
/// replays.
std::vector<net::OverlayPacket> workload() {
  std::vector<net::OverlayPacket> packets;
  for (int round = 0; round < 6; ++round) {
    packets.push_back(flow_packet(10, 3, "192.168.10.2", 40000));
    packets.push_back(flow_packet(10, 3, "192.168.30.5", 40001));
    packets.push_back(flow_packet(10, 3, "192.168.30.9", 40002));
    packets.push_back(flow_packet(10, 3, "10.99.0.1", 40003));
    packets.push_back(flow_packet(11, 7, "192.168.30.5", 40004, 900));
    packets.push_back(flow_packet(12, 1, "192.168.10.2", 40005));
  }
  return packets;
}

void expect_same_verdict(const Verdict& a, const Verdict& b,
                         std::size_t index) {
  EXPECT_EQ(a.action, b.action) << index;
  EXPECT_EQ(a.drop_reason, b.drop_reason) << index;
  EXPECT_EQ(a.software_path, b.software_path) << index;
  EXPECT_EQ(a.latency_us, b.latency_us) << index;
  EXPECT_EQ(a.packet.vni, b.packet.vni) << index;
  EXPECT_EQ(a.packet.inner, b.packet.inner) << index;
  EXPECT_EQ(a.packet.outer_src_ip, b.packet.outer_src_ip) << index;
  EXPECT_EQ(a.packet.outer_dst_ip, b.packet.outer_dst_ip) << index;
  EXPECT_EQ(a.packet.payload_size, b.packet.payload_size) << index;
}

void expect_same_hw_result(const xgwh::ForwardResult& a,
                           const xgwh::ForwardResult& b, std::size_t index) {
  expect_same_verdict(a, b, index);
  EXPECT_EQ(a.passes, b.passes) << index;
  EXPECT_EQ(a.egress_pipe, b.egress_pipe) << index;
  EXPECT_EQ(a.shard_pipe, b.shard_pipe) << index;
}

TEST(FastPathCoherence, XgwHTableMutationsKeepTwinsIdentical) {
  xgwh::XgwH cached(hw_config(1 << 10));
  xgwh::XgwH uncached(hw_config(0));
  install_tables(cached);
  install_tables(uncached);

  const auto packets = workload();
  double now = 0;
  std::size_t index = 0;
  auto run_stream = [&] {
    for (const auto& pkt : packets) {
      expect_same_hw_result(cached.forward(pkt, now), uncached.forward(pkt, now),
                            index);
      now += 1e-6;
      ++index;
    }
  };

  run_stream();  // warm: every flow cached
  EXPECT_GT(cached.flow_cache_stats().hits, 0u);

  // Update: re-install a route with a DIFFERENT action payload. The
  // cached verdict for 192.168.30.* flows must not survive.
  ASSERT_EQ(cached.install_route(10, IpPrefix::must_parse("192.168.30.0/24"),
                                 VxlanRouteAction{RouteScope::kIdc, 0,
                                                  net::Ipv4Addr(9, 9, 9, 9)}),
            uncached.install_route(
                10, IpPrefix::must_parse("192.168.30.0/24"),
                VxlanRouteAction{RouteScope::kIdc, 0,
                                 net::Ipv4Addr(9, 9, 9, 9)}));
  run_stream();

  // Remove: the local route disappears -> cached forwards must flip to
  // the same drop the uncached twin computes.
  cached.remove_route(10, IpPrefix::must_parse("192.168.10.0/24"));
  uncached.remove_route(10, IpPrefix::must_parse("192.168.10.0/24"));
  run_stream();

  // Insert: a brand-new VNI starts routing mid-stream.
  install_tables(cached);  // re-install (duplicates also bump the epoch)
  install_tables(uncached);
  cached.install_route(12, IpPrefix::must_parse("192.168.10.0/24"),
                       VxlanRouteAction{RouteScope::kLocal, 0, {}});
  uncached.install_route(12, IpPrefix::must_parse("192.168.10.0/24"),
                         VxlanRouteAction{RouteScope::kLocal, 0, {}});
  cached.install_mapping(VmNcKey{12, IpAddr::must_parse("192.168.10.2")},
                         VmNcAction{net::Ipv4Addr(10, 1, 1, 77)});
  uncached.install_mapping(VmNcKey{12, IpAddr::must_parse("192.168.10.2")},
                           VmNcAction{net::Ipv4Addr(10, 1, 1, 77)});
  run_stream();

  // Mapping removal.
  cached.remove_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")});
  uncached.remove_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")});
  run_stream();

  // ACL rules are a table mutation too.
  tables::AclRule rule;
  rule.vni = 10;
  rule.verdict = tables::AclVerdict::kDeny;
  rule.priority = 5;
  cached.add_acl_rule(rule);
  uncached.add_acl_rule(rule);
  run_stream();

  // The full registries — every counter and histogram, including the
  // walker's per-pipe stage counters a cache hit skips and replays —
  // must be byte-identical.
  EXPECT_EQ(telemetry::to_json(cached.registry().snapshot()),
            telemetry::to_json(uncached.registry().snapshot()));
  EXPECT_EQ(cached.registry().counter_value("xgwh.packets_in"),
            uncached.registry().counter_value("xgwh.packets_in"));
  EXPECT_EQ(cached.registry().counter_value("xgwh.packets_forwarded"),
            uncached.registry().counter_value("xgwh.packets_forwarded"));
  EXPECT_EQ(cached.registry().counter_value("xgwh.packets_dropped"),
            uncached.registry().counter_value("xgwh.packets_dropped"));
  EXPECT_EQ(cached.shard_pipe_bytes(), uncached.shard_pipe_bytes());
}

TEST(FastPathCoherence, XgwHGenerationBumpsOnEveryMutation) {
  xgwh::XgwH gw(hw_config(1 << 10));
  const auto gen0 = gw.fast_path_generation();
  gw.install_route(10, IpPrefix::must_parse("192.168.10.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  EXPECT_GT(gw.fast_path_generation(), gen0);
  const auto gen1 = gw.fast_path_generation();
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 11)});
  EXPECT_GT(gw.fast_path_generation(), gen1);
  const auto gen2 = gw.fast_path_generation();
  gw.remove_route(10, IpPrefix::must_parse("192.168.10.0/24"));
  EXPECT_GT(gw.fast_path_generation(), gen2);
  const auto gen3 = gw.fast_path_generation();
  gw.remove_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")});
  EXPECT_GT(gw.fast_path_generation(), gen3);
}

TEST(FastPathCoherence, XgwX86TwinsStayIdenticalAcrossMutations) {
  x86::XgwX86::Config cached_cfg;
  cached_cfg.flow_cache_entries = 1 << 10;
  x86::XgwX86::Config uncached_cfg;
  uncached_cfg.flow_cache_entries = 0;
  x86::XgwX86 cached(cached_cfg);
  x86::XgwX86 uncached(uncached_cfg);
  install_tables(cached);
  install_tables(uncached);

  const auto packets = workload();
  double now = 0;
  std::size_t index = 0;
  auto run_stream = [&] {
    for (const auto& pkt : packets) {
      const auto a = cached.forward(pkt, now);
      const auto b = uncached.forward(pkt, now);
      expect_same_verdict(a, b, index);
      EXPECT_EQ(a.snat.has_value(), b.snat.has_value()) << index;
      now += 1e-6;
      ++index;
    }
  };

  run_stream();
  EXPECT_GT(cached.flow_cache_stats().hits, 0u);

  cached.install_route(10, IpPrefix::must_parse("192.168.30.0/24"),
                       VxlanRouteAction{RouteScope::kCrossRegion, 0,
                                        net::Ipv4Addr(8, 8, 8, 8)});
  uncached.install_route(10, IpPrefix::must_parse("192.168.30.0/24"),
                         VxlanRouteAction{RouteScope::kCrossRegion, 0,
                                          net::Ipv4Addr(8, 8, 8, 8)});
  run_stream();

  cached.remove_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")});
  uncached.remove_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")});
  run_stream();

  EXPECT_EQ(telemetry::to_json(cached.registry().snapshot()),
            telemetry::to_json(uncached.registry().snapshot()));
}

TEST(FastPathCoherence, SnatVerdictsNeverReplayFromTheCache) {
  // SNAT allocates per-flow state (port bindings with timeouts); replaying
  // it from a cache would skip the engine. The kInternet path must stay
  // uncached: twins agree AND the cached gateway records no hit for it.
  x86::XgwX86::Config cfg;
  cfg.flow_cache_entries = 1 << 10;
  x86::XgwX86 cached(cfg);
  cfg.flow_cache_entries = 0;
  x86::XgwX86 uncached(cfg);
  for (auto* gw : {&cached, &uncached}) {
    gw->install_route(10, IpPrefix::must_parse("0.0.0.0/0"),
                      VxlanRouteAction{RouteScope::kInternet, 0, {}});
  }
  const auto pkt = flow_packet(10, 3, "1.2.3.4", 50000);
  for (int i = 0; i < 5; ++i) {
    const auto a = cached.forward(pkt, i * 1e-3);
    const auto b = uncached.forward(pkt, i * 1e-3);
    expect_same_verdict(a, b, static_cast<std::size_t>(i));
    ASSERT_TRUE(a.snat.has_value());
    EXPECT_EQ(a.snat->public_port, b.snat->public_port) << i;
  }
  EXPECT_EQ(cached.flow_cache_stats().hits, 0u);
}

TEST(FastPathCoherence, ClusterFailoverInvalidatesEveryDeviceCache) {
  cluster::XgwHCluster::Config cfg;
  cfg.primary_devices = 2;
  cfg.backup_devices = 2;
  cfg.device = hw_config(1 << 10);
  cluster::XgwHCluster cached(cfg);
  cfg.device = hw_config(0);
  cluster::XgwHCluster uncached(cfg);
  install_tables(cached);
  install_tables(uncached);

  const auto packets = workload();
  double now = 0;
  std::size_t index = 0;
  auto run_stream = [&] {
    for (const auto& pkt : packets) {
      expect_same_hw_result(cached.forward(pkt, now),
                            uncached.forward(pkt, now), index);
      now += 1e-6;
      ++index;
    }
  };

  run_stream();  // warm every device the ECMP spread touches

  const auto gen_before = cached.device(0).fast_path_generation();

  // Health reroute: primary 0 dies, flows re-steer to primary 1.
  cached.fail_device(0);
  uncached.fail_device(0);
  EXPECT_GT(cached.device(0).fast_path_generation(), gen_before);
  EXPECT_GT(cached.device(1).fast_path_generation(), gen_before);
  run_stream();

  // DR standby swap: the last primary goes too -> backups take over.
  cached.fail_device(1);
  uncached.fail_device(1);
  ASSERT_TRUE(cached.failed_over());
  ASSERT_TRUE(uncached.failed_over());
  run_stream();

  // Recovery re-steers again.
  cached.recover_device(0);
  uncached.recover_device(0);
  ASSERT_FALSE(cached.failed_over());
  run_stream();

  for (std::size_t d = 0; d < cached.device_count(); ++d) {
    EXPECT_EQ(telemetry::to_json(cached.device(d).registry().snapshot()),
              telemetry::to_json(uncached.device(d).registry().snapshot()))
        << "device " << d;
  }
}

TEST(FastPathCoherence, ShardedBatchMatchesSequentialAtAnyThreadCount) {
  // One gateway per shard (shard-private flow cache, no locks): the
  // parallel batch path must reproduce, bit for bit, what one thread
  // computes — and a fleet of UNCACHED gateways computes the same again.
  constexpr std::size_t kShards = 4;
  auto make_fleet = [&](std::size_t cache_entries) {
    std::vector<std::unique_ptr<xgwh::XgwH>> fleet;
    for (std::size_t s = 0; s < kShards; ++s) {
      fleet.push_back(std::make_unique<xgwh::XgwH>(hw_config(cache_entries)));
      install_tables(*fleet.back());
    }
    return fleet;
  };

  std::vector<net::OverlayPacket> packets;
  for (int i = 0; i < 400; ++i) {
    packets.push_back(flow_packet(10, static_cast<std::uint8_t>(i % 16),
                                  i % 3 ? "192.168.10.2" : "192.168.30.5",
                                  static_cast<std::uint16_t>(40000 + i % 32)));
  }

  auto run = [&](std::size_t threads, std::size_t cache_entries) {
    auto fleet = make_fleet(cache_entries);
    dataplane::ShardEngine engine({kShards, threads});
    return engine.process_packets(
        packets, /*now=*/0.0,
        [&](std::size_t shard) -> dataplane::Gateway& {
          return *fleet[shard];
        });
  };

  const auto reference = run(1, 1 << 10);
  for (const std::size_t threads : {2u, 8u}) {
    const auto verdicts = run(threads, 1 << 10);
    ASSERT_EQ(verdicts.size(), reference.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      expect_same_verdict(verdicts[i], reference[i], i);
    }
  }
  const auto uncached = run(8, 0);
  for (std::size_t i = 0; i < uncached.size(); ++i) {
    expect_same_verdict(uncached[i], reference[i], i);
  }
}

}  // namespace
}  // namespace sf

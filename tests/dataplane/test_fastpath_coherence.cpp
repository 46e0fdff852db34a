// Flow-cache coherence: a cached gateway must be observationally
// indistinguishable from an uncached one — identical verdict streams AND
// identical telemetry registries — across table inserts/removes/updates,
// ACL changes, DR standby swaps and health reroutes. The epoch-based lazy
// invalidation makes this hold by construction; these tests drive every
// mutation source against paired cached/uncached twins to prove it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <random>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "dataplane/shard_engine.hpp"
#include "tables/digest_table.hpp"
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

// ---- What a cached walk's generation covers ------------------------------
//
// The tests above hold for any invalidation that is wide enough. These
// also hold the gateways to a narrow one: an op re-walks the cached flows
// it may affect and leaves every other flow replaying from the cache.

template <typename Gw>
typename Gw::Config cache_config(std::size_t entries) {
  typename Gw::Config config;
  config.flow_cache_entries = entries;
  return config;
}

/// A cached gateway and its uncached twin, fed the same ops and packets.
template <typename Gw>
struct Twins {
  Gw cached{cache_config<Gw>(1 << 12)};
  Gw uncached{cache_config<Gw>(0)};
  Verdict last;  // the cached twin's latest verdict
  double now = 0;
  std::size_t index = 0;

  void apply(const dataplane::TableOpBatch& batch) {
    const dataplane::BatchResult a = cached.apply(batch);
    const dataplane::BatchResult b = uncached.apply(batch);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].status, b.results[i].status) << i;
    }
  }

  /// Forwards `packet` through both twins, checks that their verdicts
  /// agree, and returns whether the cached twin replayed it.
  bool forward(const net::OverlayPacket& packet) {
    const std::uint64_t hits = cached.flow_cache_stats().hits;
    last = cached.process(packet, now);
    expect_same_verdict(last, uncached.process(packet, now), index);
    now += 1e-6;
    ++index;
    return cached.flow_cache_stats().hits > hits;
  }

  void expect_same_registries() const {
    EXPECT_EQ(telemetry::to_json(cached.registry().snapshot()),
              telemetry::to_json(uncached.registry().snapshot()));
  }
};

net::Ipv4Addr host(net::Vni vni, std::uint8_t h) {
  return net::Ipv4Addr(10, static_cast<std::uint8_t>(vni), 0, h);
}
IpPrefix subnet(net::Vni vni) { return net::Ipv4Prefix(host(vni, 0), 16); }
VmNcAction nc(std::uint8_t n) {
  return VmNcAction{net::Ipv4Addr(172, 16, 0, n)};
}

net::OverlayPacket packet_to(net::Vni vni, const IpAddr& dst,
                             std::uint16_t src_port) {
  net::OverlayPacket pkt;
  pkt.vni = vni;
  pkt.inner.src = IpAddr(net::Ipv4Addr(10, 250, 0, 1));
  pkt.inner.dst = dst;
  pkt.inner.proto = 17;
  pkt.inner.src_port = src_port;
  pkt.inner.dst_port = 53;
  pkt.payload_size = 300;
  return pkt;
}

using FlowSet = std::function<bool(const net::OverlayPacket&)>;
FlowSet entering(std::initializer_list<net::Vni> vnis) {
  return [set = std::vector<net::Vni>(vnis)](const net::OverlayPacket& p) {
    return std::find(set.begin(), set.end(), p.vni) != set.end();
  };
}
FlowSet toward(std::initializer_list<IpAddr> dsts) {
  return [set = std::vector<IpAddr>(dsts)](const net::OverlayPacket& p) {
    return std::find(set.begin(), set.end(), p.inner.dst) != set.end();
  };
}

/// Streams `flows` through `twins`. warm() runs them until every flow
/// replays; after an op, expect_rewalks(set) checks that exactly the flows
/// in `set` miss once, and that every flow replays again afterwards.
template <typename Gw>
struct FlowPasses {
  Twins<Gw>& twins;
  const std::vector<net::OverlayPacket>& flows;

  std::vector<bool> pass() {
    std::vector<bool> hits;
    for (const net::OverlayPacket& packet : flows) {
      hits.push_back(twins.forward(packet));
    }
    return hits;
  }
  // A flow is admitted on its second miss and replays from its third.
  void warm() {
    pass();
    pass();
    expect_rewalks([](const net::OverlayPacket&) { return false; }, "warm");
  }
  void expect_rewalks(const FlowSet& rewalks, const char* what) {
    const std::vector<bool> hits = pass();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(hits[i], !rewalks(flows[i]))
          << what << ": flow " << i << " entering VNI " << flows[i].vni
          << " toward " << flows[i].inner.dst.to_string();
    }
    const std::vector<bool> again = pass();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_TRUE(again[i]) << what << " (second pass): flow " << i;
    }
  }
};

template <typename Gw>
void check_peer_group_isolation() {
  // A route op re-walks the flows entering on its VNI's peer group, a
  // mapping op only the flows toward its address.
  Twins<Gw> twins;
  // Groups {20, 21} and {30, 31} (20 and 30 peer into their partner); 40
  // is alone until 31 peers into it.
  dataplane::TableOpBatch setup;
  for (const net::Vni vni : {20u, 21u, 30u, 31u, 40u}) {
    setup.add_route(vni, subnet(vni),
                    VxlanRouteAction{RouteScope::kLocal, 0, {}});
    for (std::uint8_t h = 1; h <= 4; ++h) {
      setup.add_mapping(VmNcKey{vni, IpAddr(host(vni, h))}, nc(h));
    }
  }
  setup.add_route(20, subnet(21), VxlanRouteAction{RouteScope::kPeer, 21, {}});
  setup.add_route(30, subnet(31), VxlanRouteAction{RouteScope::kPeer, 31, {}});
  twins.apply(setup);

  std::vector<net::OverlayPacket> flows;
  const std::pair<net::Vni, net::Vni> entry_owner[] = {
      {20, 20}, {20, 21}, {21, 21}, {30, 30},
      {30, 31}, {31, 31}, {31, 40}, {40, 40}};
  for (const auto& [entry, owner] : entry_owner) {
    for (std::uint8_t h = 1; h <= 4; ++h) {
      const auto port = static_cast<std::uint16_t>(1000 + flows.size());
      flows.push_back(packet_to(entry, IpAddr(host(owner, h)), port));
    }
  }
  FlowPasses<Gw> passes{twins, flows};
  passes.warm();

  dataplane::TableOpBatch op;
  op.add_route(21, net::Ipv4Prefix(net::Ipv4Addr(10, 99, 0, 0), 16),
               VxlanRouteAction{RouteScope::kLocal, 0, {}});
  twins.apply(op);
  passes.expect_rewalks(entering({20, 21}), "route op in {20, 21}");

  op = {};
  op.del_route(30, subnet(30));
  twins.apply(op);
  passes.expect_rewalks(entering({30, 31}), "route removal in {30, 31}");

  const IpAddr migrated(host(21, 2));
  op = {};
  op.add_mapping(VmNcKey{21, migrated}, nc(9));
  twins.apply(op);
  passes.expect_rewalks(toward({migrated}), "migration in {20, 21}");

  const IpAddr offboarded(host(40, 3));
  op = {};
  op.del_mapping(VmNcKey{40, offboarded});
  twins.apply(op);
  passes.expect_rewalks(toward({offboarded}), "offboarding on unpeered 40");

  // A peer route merges {30, 31} with 40; the 31 -> 40 flows now resolve.
  op = {};
  op.add_route(31, subnet(40), VxlanRouteAction{RouteScope::kPeer, 40, {}});
  twins.apply(op);
  passes.expect_rewalks(entering({30, 31, 40}), "peering 31 -> 40");

  op = {};
  op.add_mapping(VmNcKey{40, offboarded}, nc(7));
  twins.apply(op);
  passes.expect_rewalks(toward({offboarded}), "onboarding in {30, 31, 40}");

  // Groups never split: after the peer route goes, a route op on 40 still
  // re-walks the whole merged group.
  op = {};
  op.del_route(31, subnet(40));
  twins.apply(op);
  passes.expect_rewalks(entering({30, 31, 40}), "unpeering 31 -> 40");
  op = {};
  op.add_route(40, net::Ipv4Prefix(net::Ipv4Addr(10, 98, 0, 0), 16),
               VxlanRouteAction{RouteScope::kLocal, 0, {}});
  twins.apply(op);
  passes.expect_rewalks(entering({30, 31, 40}), "route op on 40");

  twins.expect_same_registries();
}

TEST(FastPathCoherence, XgwHOpsRewalkOnlyTheirPeerGroup) {
  check_peer_group_isolation<xgwh::XgwH>();
}

TEST(FastPathCoherence, XgwX86OpsRewalkOnlyTheirPeerGroup) {
  check_peer_group_isolation<x86::XgwX86>();
}

TEST(FastPathCoherence, XgwHDigestCollisionsShareAMappingGeneration) {
  // Two v6 addresses with one 32-bit digest: the pooled VM-NC table keeps
  // neither full key, so a lookup of one can return the other's entry (a
  // false positive), and installing or removing either moves lookups of
  // both. Every flow toward either must re-walk.
  const tables::DigestVmNcTable digest(
      tables::DigestVmNcTable::Config{/*buckets=*/16});  // XgwH's digest
  constexpr std::uint64_t kHi = 0xfd00000000000050ULL;
  std::unordered_map<std::uint32_t, std::uint64_t> seen;
  IpAddr a;
  IpAddr b;
  for (std::uint64_t lo = 1;; ++lo) {
    ASSERT_LT(lo, std::uint64_t{1} << 22) << "no digest collision found";
    const IpAddr addr(net::Ipv6Addr(kHi, lo));
    const auto [it, fresh] = seen.emplace(digest.ip32(addr), lo);
    if (!fresh) {
      a = IpAddr(net::Ipv6Addr(kHi, it->second));
      b = addr;
      break;
    }
  }
  ASSERT_NE(a, b);
  const IpAddr c(net::Ipv6Addr(kHi, 0xc0ffee));
  ASSERT_NE(digest.ip32(c), digest.ip32(a));

  constexpr net::Vni kVni = 50;
  Twins<xgwh::XgwH> twins;
  dataplane::TableOpBatch op;
  op.add_route(kVni, net::Ipv6Prefix(net::Ipv6Addr(kHi, 0), 64),
               VxlanRouteAction{RouteScope::kLocal, 0, {}});
  op.add_mapping(VmNcKey{kVni, a}, nc(1));
  op.add_mapping(VmNcKey{kVni, c}, nc(3));
  twins.apply(op);

  std::vector<net::OverlayPacket> flows;
  for (const IpAddr& dst : {a, b, c}) {
    for (int copy = 0; copy < 2; ++copy) {  // two flows per address
      const auto src_port = static_cast<std::uint16_t>(2000 + flows.size());
      flows.push_back(packet_to(kVni, dst, src_port));
    }
  }
  FlowPasses<xgwh::XgwH> passes{twins, flows};
  passes.warm();
  const auto verdict_toward = [&](const IpAddr& dst) {
    twins.forward(packet_to(kVni, dst, 3000));
    return twins.last;
  };
  // b was never installed, yet its lookup returns a's entry.
  EXPECT_EQ(verdict_toward(b).packet.outer_dst_ip, IpAddr(nc(1).nc_ip));

  // b's install lands in the conflict store: a's slot is taken.
  op = {};
  op.add_mapping(VmNcKey{kVni, b}, nc(2));
  twins.apply(op);
  passes.expect_rewalks(toward({a, b}), "installing the colliding mapping");
  EXPECT_EQ(verdict_toward(b).packet.outer_dst_ip, IpAddr(nc(2).nc_ip));

  // Removing a promotes b into the pooled slot: a now reads b's entry.
  op = {};
  op.del_mapping(VmNcKey{kVni, a});
  twins.apply(op);
  passes.expect_rewalks(toward({a, b}), "removing the owner");
  EXPECT_EQ(verdict_toward(a).packet.outer_dst_ip, IpAddr(nc(2).nc_ip));

  op = {};
  op.del_mapping(VmNcKey{kVni, b});
  twins.apply(op);
  passes.expect_rewalks(toward({a, b}), "removing the colliding mapping");
  EXPECT_EQ(verdict_toward(a).action, dataplane::Action::kFallbackToX86);

  twins.expect_same_registries();
}

/// Random peerings and route/mapping churn between packets, on a small
/// VNI set so peer groups grow, merge and loop.
template <typename Gw>
void check_random_churn(std::uint64_t seed) {
  SCOPED_TRACE(seed);
  constexpr net::Vni kVnis[] = {60, 61, 62, 63, 64, 65};
  std::mt19937_64 rng(seed);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto any_vni = [&] { return kVnis[below(std::size(kVnis))]; };
  const auto any_host = [&] { return static_cast<std::uint8_t>(1 + below(8)); };

  Twins<Gw> twins;
  dataplane::TableOpBatch setup;
  for (const net::Vni vni : kVnis) {
    setup.add_route(vni, subnet(vni),
                    VxlanRouteAction{RouteScope::kLocal, 0, {}});
    for (std::uint8_t h = 1; h <= 6; ++h) {
      setup.add_mapping(VmNcKey{vni, IpAddr(host(vni, h))}, nc(h));
    }
  }
  twins.apply(setup);

  std::vector<net::OverlayPacket> flows;
  for (std::uint16_t f = 0; f < 96; ++f) {
    flows.push_back(packet_to(any_vni(), IpAddr(host(any_vni(), any_host())),
                              static_cast<std::uint16_t>(5000 + f)));
  }
  std::size_t ops = 0;
  for (int i = 0; i < 4000; ++i) {
    if (below(16) == 0) {
      const net::Vni vni = any_vni();
      const net::Vni owner = any_vni();
      dataplane::TableOpBatch op;
      switch (below(6)) {
        case 0:
          op.add_route(vni, subnet(owner),
                       VxlanRouteAction{RouteScope::kLocal, 0, {}});
          break;
        case 1:
          op.add_route(vni, subnet(owner),
                       VxlanRouteAction{RouteScope::kPeer, owner, {}});
          break;
        case 2:
          op.del_route(vni, subnet(owner));
          break;
        case 3:
          op.add_mapping(VmNcKey{owner, IpAddr(host(owner, any_host()))},
                         nc(static_cast<std::uint8_t>(10 + below(8))));
          break;
        case 4:
          op.del_mapping(VmNcKey{owner, IpAddr(host(owner, any_host()))});
          break;
        default:
          op.add_route(vni, subnet(owner),
                       VxlanRouteAction{RouteScope::kIdc, 0,
                                        net::Ipv4Addr(9, 9, 9, 9)});
          break;
      }
      twins.apply(op);
      ++ops;
    }
    twins.forward(flows[below(flows.size())]);
  }
  EXPECT_GT(ops, 150u);
  EXPECT_GT(twins.cached.flow_cache_stats().hits, 400u);
  twins.expect_same_registries();
}

TEST(FastPathCoherence, XgwHTwinsAgreeUnderRandomPeeringAndChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    check_random_churn<xgwh::XgwH>(seed);
  }
}

TEST(FastPathCoherence, XgwX86TwinsAgreeUnderRandomPeeringAndChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    check_random_churn<x86::XgwX86>(seed);
  }
}

TEST(FastPathCoherence, XgwX86PinnedReaderNeverReplaysNewerState) {
  // A reader pinned behind the mutator reads the tables as of its pin. Its
  // flow's mapping slot was bumped after the pin, so it must neither probe
  // nor fill the cache: a fill would stamp version 2's NC with version 3,
  // and a reader at version 3 would replay it.
  x86::XgwX86 gw(cache_config<x86::XgwX86>(1 << 12));
  const IpAddr vm(host(20, 1));
  dataplane::TableOpBatch op;
  op.add_route(20, subnet(20), VxlanRouteAction{RouteScope::kLocal, 0, {}});
  ASSERT_EQ(gw.apply(op).publish_epoch, 1u);
  op = {};
  op.add_mapping(VmNcKey{20, vm}, nc(1));
  ASSERT_EQ(gw.apply(op).publish_epoch, 2u);

  gw.set_lookup_seq(2);
  op = {};
  op.add_mapping(VmNcKey{20, vm}, nc(2));  // the VM migrates
  ASSERT_EQ(gw.apply(op).publish_epoch, 3u);

  const net::OverlayPacket packet = packet_to(20, vm, 1000);
  for (int i = 0; i < 2; ++i) {  // a second miss would admit the flow
    const Verdict verdict = gw.process(packet, 0);
    EXPECT_EQ(verdict.action, dataplane::Action::kForwardToNc) << i;
    EXPECT_EQ(verdict.packet.outer_dst_ip, IpAddr(nc(1).nc_ip)) << i;
  }
  EXPECT_EQ(gw.flow_cache_stats().misses, 0u);
  EXPECT_EQ(gw.flow_cache_stats().insertions, 0u);

  gw.set_lookup_seq(3);
  for (int i = 0; i < 3; ++i) {  // miss, admit, replay
    const Verdict verdict = gw.process(packet, 0);
    EXPECT_EQ(verdict.packet.outer_dst_ip, IpAddr(nc(2).nc_ip)) << i;
  }
  EXPECT_EQ(gw.flow_cache_stats().hits, 1u);
}

}  // namespace
}  // namespace sf

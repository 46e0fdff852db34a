// Batch-identity differential suite (DESIGN.md §15): the sharded
// engine's burst size and thread count are pure throughput knobs. For a
// random packet stream hitting every verdict class, the engine at every
// sweep batch size (1/8/32/128/512) x thread count (1/8) x flow-cache
// setting (off/on) must reproduce the scalar ground truth — each packet
// processed one at a time on its hash-picked shard — verdict-for-verdict
// AND counter-for-counter (full per-device registry snapshots, compared
// as serialized JSON). XgwH runs folded and unfolded, and the stream
// reaches every outcome path of its program: local forward, VM-miss and
// route-miss fallback, internet, IDC and cross-region tunnels, peer
// chains of 1-3 hops, a peer loop, an ACL deny and an out-of-range VNI.
//
// A second group pins the single-hash contract (the 5-tuple used to be
// hashed two to three times per packet): the engine's precomputed hashes
// must equal FiveTuple::hash(), agree with the shard steering, and
// derive the same flow-cache key as the scalar tuple overload.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <string>
#include <vector>

#include "dataplane/flow_cache.hpp"
#include "dataplane/shard_engine.hpp"
#include "net/hash.hpp"
#include "telemetry/export.hpp"
#include "x86/xgw_x86.hpp"
#include "xgwh/xgwh.hpp"

namespace sf::dataplane {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;

constexpr std::size_t kShards = 4;
constexpr std::size_t kPackets = 4096;
constexpr std::size_t kVnis = 8;
constexpr std::size_t kHosts = 8;

/// Peer chains of 1, 2 and 3 hops ending at tenants 100, 101 and 104
/// (entry VNI first). 202 -> 212 and 224 -> 104 change shard, and 204
/// enters on shard 1 (XgwH::shard_of_vni).
const std::vector<std::vector<net::Vni>> kPeerChains = {
    {201, 100}, {202, 212, 101}, {204, 214, 224, 104}};
/// Two VNIs peered to each other: the hop budget runs out.
constexpr net::Vni kLoopA = 250;
constexpr net::Vni kLoopB = 251;
constexpr std::uint16_t kDeniedPort = 23;

/// Tables reaching every verdict class: local forwards, VM-mapping
/// misses, internet routes on even tenants (odd tenants route-miss), IDC
/// and cross-region tunnels, peer chains into the tenants, a two-VNI peer
/// loop, an ACL deny (XgwH only) and the unknown tenant 999 left
/// uninstalled.
template <typename Node>
std::vector<std::unique_ptr<Node>> make_fleet(typename Node::Config config) {
  std::vector<std::unique_ptr<Node>> fleet;
  for (std::size_t s = 0; s < kShards; ++s) {
    fleet.push_back(std::make_unique<Node>(config));
  }
  const auto peer = [](net::Vni next) {
    return tables::VxlanRouteAction{RouteScope::kPeer, next, {}};
  };
  for (auto& node : fleet) {
    for (std::size_t v = 0; v < kVnis; ++v) {
      const net::Vni vni = static_cast<net::Vni>(100 + v);
      node->install_route(
          vni,
          IpPrefix(net::Ipv4Prefix(
              net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 0, 0), 16)),
          {RouteScope::kLocal, 0, {}});
      if (v % 2 == 0) {
        node->install_route(vni, IpPrefix::must_parse("0.0.0.0/0"),
                            {RouteScope::kInternet, 0, {}});
      }
      node->install_route(
          vni, IpPrefix::must_parse("20.0.0.0/8"),
          {RouteScope::kIdc, 0, net::Ipv4Addr(198, 51, 100, 1)});
      node->install_route(
          vni, IpPrefix::must_parse("30.0.0.0/8"),
          {RouteScope::kCrossRegion, 0, net::Ipv4Addr(203, 0, 113, 1)});
      for (std::size_t h = 1; h <= kHosts; ++h) {
        node->install_mapping(
            {vni, IpAddr(net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 1,
                                       static_cast<std::uint8_t>(h)))},
            {net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(v),
                           static_cast<std::uint8_t>(h))});
      }
    }
    for (const auto& chain : kPeerChains) {
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        node->install_route(chain[i], IpPrefix::must_parse("0.0.0.0/0"),
                            peer(chain[i + 1]));
      }
    }
    node->install_route(kLoopA, IpPrefix::must_parse("0.0.0.0/0"),
                        peer(kLoopB));
    node->install_route(kLoopB, IpPrefix::must_parse("0.0.0.0/0"),
                        peer(kLoopA));
    if constexpr (requires(tables::AclRule rule) {
                    node->add_acl_rule(rule);
                  }) {
      tables::AclRule deny;
      deny.dst_port = kDeniedPort;
      deny.verdict = tables::AclVerdict::kDeny;
      deny.priority = 1;
      node->add_acl_rule(deny);
    }
  }
  return fleet;
}

/// Deterministic pseudo-random stream over a 16-way class draw: ~6%
/// unknown tenant, ~12% VM-mapping miss, ~6% off-subnet dst, ~12% peer
/// chains, ~6% peer loop, ~6% tunnels, ~6% ACL-denied port, ~6% VNI above
/// net::kMaxVni, the rest mapped VMs. Every class except the first three
/// draws from a small flow space so the cache sees plenty of repeats.
std::vector<net::OverlayPacket> make_stream(std::uint64_t seed) {
  std::vector<net::OverlayPacket> packets;
  packets.reserve(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    const std::uint64_t r = net::mix64(seed + i);
    const auto v = static_cast<std::uint8_t>(r % kVnis);
    net::OverlayPacket pkt;
    pkt.vni = static_cast<net::Vni>(100 + v);
    pkt.inner.proto = 6;
    pkt.inner.src =
        IpAddr(net::Ipv4Addr(10, v, 2,
                             static_cast<std::uint8_t>(1 + (r >> 8) % 200)));
    pkt.inner.src_port =
        static_cast<std::uint16_t>(1024 + (r >> 16) % 40000);
    pkt.inner.dst_port = 80;
    pkt.payload_size = static_cast<std::uint16_t>(64 + (r >> 24) % 1200);
    const auto narrow = [&] {
      pkt.inner.src = IpAddr(net::Ipv4Addr(
          10, v, 2, static_cast<std::uint8_t>(1 + (r >> 8) % 4)));
      pkt.inner.src_port =
          static_cast<std::uint16_t>(40000 + (r >> 48) % 64);
    };
    const auto mapped_vm = [&](std::uint8_t tenant) {
      return IpAddr(
          net::Ipv4Addr(10, tenant, 1,
                        static_cast<std::uint8_t>(1 + (r >> 40) % kHosts)));
    };
    switch ((r >> 32) % 16) {
      case 0:  // unknown tenant
        pkt.vni = 999;
        pkt.inner.dst = IpAddr(net::Ipv4Addr(10, 0, 1, 1));
        break;
      case 1:
      case 2:  // inside the local /16 but no VM mapping
        pkt.inner.dst = IpAddr(net::Ipv4Addr(10, v, 9, 9));
        break;
      case 3:  // off-subnet: internet route on even tenants, miss on odd
        pkt.inner.dst = IpAddr(net::Ipv4Addr(93, 184, 216, 34));
        break;
      case 4:
      case 5: {  // peer chain: mapped VM, VM miss or off-subnet at its end
        const auto& chain = kPeerChains[(r >> 36) % kPeerChains.size()];
        pkt.vni = chain.front();
        const auto tenant = static_cast<std::uint8_t>(chain.back() - 100);
        switch ((r >> 56) % 4) {
          case 0:
            pkt.inner.dst = IpAddr(net::Ipv4Addr(10, tenant, 9, 9));
            break;
          case 1:
            pkt.inner.dst = IpAddr(net::Ipv4Addr(93, 184, 216, 34));
            break;
          default:
            pkt.inner.dst = mapped_vm(tenant);
            break;
        }
        narrow();
        break;
      }
      case 6:  // peer loop, entered from either side
        pkt.vni = (r >> 36) & 1 ? kLoopA : kLoopB;
        pkt.inner.dst = mapped_vm(v);
        narrow();
        break;
      case 7:  // IDC or cross-region tunnel
        pkt.inner.dst = IpAddr(net::Ipv4Addr((r >> 36) & 1 ? 20 : 30, v, 0,
                                             static_cast<std::uint8_t>(
                                                 1 + (r >> 40) % kHosts)));
        narrow();
        break;
      case 8:  // ACL-denied port
        pkt.inner.dst = mapped_vm(v);
        narrow();
        pkt.inner.dst_port = kDeniedPort;
        break;
      case 9:  // VNI outside the 24-bit space
        pkt.vni = net::kMaxVni + 1 + v;
        pkt.inner.dst = mapped_vm(v);
        narrow();
        break;
      default:  // mapped VM, narrow flow space -> repeats -> cache hits
        pkt.inner.dst = mapped_vm(v);
        narrow();
        break;
    }
    packets.push_back(pkt);
  }
  return packets;
}

/// Ground truth: the packets one at a time, each on the shard its tuple
/// hash picks — no engine, no bursts, no threads.
template <typename Node>
std::vector<Verdict> run_scalar(
    std::vector<std::unique_ptr<Node>>& fleet,
    std::span<const net::OverlayPacket> packets) {
  std::vector<Verdict> out(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::size_t shard =
        static_cast<std::size_t>(packets[i].inner.hash()) % kShards;
    out[i] = fleet[shard]->process(packets[i], /*now=*/0.0);
  }
  return out;
}

template <typename Node>
std::vector<Verdict> run_engine(std::size_t threads, std::size_t batch,
                                std::vector<std::unique_ptr<Node>>& fleet,
                                std::span<const net::OverlayPacket> packets) {
  ShardEngine engine({kShards, threads, batch});
  std::vector<Verdict> out(packets.size());
  engine.process_packets(
      packets, /*now=*/0.0,
      [&](std::size_t s) -> Gateway& { return *fleet[s]; }, out);
  return out;
}

template <typename Node>
std::vector<std::string> fleet_registries(
    const std::vector<std::unique_ptr<Node>>& fleet) {
  std::vector<std::string> out;
  out.reserve(fleet.size());
  for (const auto& node : fleet) {
    out.push_back(telemetry::to_json(node->registry().snapshot()));
  }
  return out;
}

void expect_identical(const std::vector<Verdict>& got,
                      const std::vector<Verdict>& truth,
                      std::size_t threads, std::size_t batch) {
  ASSERT_EQ(got.size(), truth.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].action, truth[i].action)
        << "packet " << i << " threads " << threads << " batch " << batch;
    ASSERT_EQ(got[i].drop_reason, truth[i].drop_reason) << "packet " << i;
    ASSERT_EQ(got[i].software_path, truth[i].software_path) << "packet " << i;
    ASSERT_EQ(got[i].latency_us, truth[i].latency_us) << "packet " << i;
    ASSERT_EQ(got[i].packet.outer_src_ip, truth[i].packet.outer_src_ip)
        << "packet " << i;
    ASSERT_EQ(got[i].packet.outer_dst_ip, truth[i].packet.outer_dst_ip)
        << "packet " << i;
  }
}

template <typename Node>
void check_batch_identity(const typename Node::Config& config) {
  const auto packets = make_stream(0x5a11f15bULL);

  auto truth_fleet = make_fleet<Node>(config);
  const auto truth = run_scalar(truth_fleet, packets);
  const auto truth_regs = fleet_registries(truth_fleet);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{128},
          std::size_t{512}}) {
      auto fleet = make_fleet<Node>(config);
      const auto got = run_engine(threads, batch, fleet, packets);
      expect_identical(got, truth, threads, batch);
      const auto regs = fleet_registries(fleet);
      for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_EQ(regs[s], truth_regs[s])
            << "registry diverged on shard " << s << " threads " << threads
            << " batch " << batch;
      }
    }
  }
}

template <typename Node>
typename Node::Config with_cache(std::size_t cache_entries) {
  typename Node::Config config;
  config.flow_cache_entries = cache_entries;
  return config;
}

xgwh::XgwH::Config unfolded(std::size_t cache_entries) {
  auto config = with_cache<xgwh::XgwH>(cache_entries);
  config.compression = asic::CompressionConfig::none();
  return config;
}

TEST(BatchIdentity, StreamReachesEveryXgwHPath) {
  // The identity checks below only cover the paths the stream reaches.
  for (const auto& config : {with_cache<xgwh::XgwH>(0), unfolded(0)}) {
    auto fleet = make_fleet<xgwh::XgwH>(config);
    const auto packets = make_stream(0x5a11f15bULL);
    const auto verdicts = run_scalar(fleet, packets);
    std::set<std::pair<Action, DropReason>> seen;
    for (const Verdict& v : verdicts) seen.emplace(v.action, v.drop_reason);
    for (const auto& outcome :
         {std::pair{Action::kForwardToNc, DropReason::kNone},
          std::pair{Action::kForwardTunnel, DropReason::kNone},
          std::pair{Action::kFallbackToX86, DropReason::kNone},
          std::pair{Action::kDrop, DropReason::kInvalidVni},
          std::pair{Action::kDrop, DropReason::kAclDeny},
          std::pair{Action::kDrop, DropReason::kPeerResolutionLoop}}) {
      EXPECT_EQ(seen.count(outcome), 1u)
          << to_string(outcome.first) << " / " << to_string(outcome.second);
    }
    std::uint64_t route_miss = 0, vm_miss = 0;
    for (const auto& node : fleet) {
      route_miss += node->registry().counter_value("xgwh.table.route.miss");
      vm_miss += node->registry().counter_value("xgwh.table.vm_nc.miss");
    }
    EXPECT_GT(route_miss, 0u);
    EXPECT_GT(vm_miss, 0u);
  }
}

TEST(BatchIdentity, XgwHUncached) {
  check_batch_identity<xgwh::XgwH>(with_cache<xgwh::XgwH>(0));
}

TEST(BatchIdentity, XgwHCached) {
  check_batch_identity<xgwh::XgwH>(with_cache<xgwh::XgwH>(1 << 10));
}

TEST(BatchIdentity, XgwHUnfoldedUncached) {
  check_batch_identity<xgwh::XgwH>(unfolded(0));
}

TEST(BatchIdentity, XgwHUnfoldedCached) {
  check_batch_identity<xgwh::XgwH>(unfolded(1 << 10));
}

TEST(BatchIdentity, XgwX86Uncached) {
  check_batch_identity<x86::XgwX86>(with_cache<x86::XgwX86>(0));
}

TEST(BatchIdentity, XgwX86Cached) {
  check_batch_identity<x86::XgwX86>(with_cache<x86::XgwX86>(1 << 10));
}

// ---- single-hash contract --------------------------------------------------

/// Probe gateway: records what the engine feeds process_batch_indexed and
/// asserts the precomputed hash per packet equals FiveTuple::hash() and
/// lands on this very shard.
class HashProbe : public Gateway {
 public:
  HashProbe(std::size_t shard, std::size_t shards)
      : shard_(shard), shards_(shards) {}

  Verdict process(const net::OverlayPacket&, double) override {
    return Verdict{};
  }

  void process_batch_indexed(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double, std::span<Verdict> out) override {
    EXPECT_EQ(flow_hashes.size(), packets.size());
    for (const std::uint32_t i : indices) {
      EXPECT_EQ(flow_hashes[i], packets[i].inner.hash()) << "packet " << i;
      EXPECT_EQ(static_cast<std::size_t>(flow_hashes[i]) % shards_, shard_)
          << "packet " << i;
      out[i] = Verdict{};
      ++seen_;
    }
  }

  std::size_t seen() const { return seen_; }

 private:
  std::size_t shard_;
  std::size_t shards_;
  std::size_t seen_ = 0;
};

TEST(BatchIdentity, EngineHashesAgreeWithShardSteering) {
  const auto packets = make_stream(0xfeedULL);
  std::vector<std::unique_ptr<HashProbe>> probes;
  for (std::size_t s = 0; s < kShards; ++s) {
    probes.push_back(std::make_unique<HashProbe>(s, kShards));
  }
  ShardEngine engine({kShards, /*threads=*/2, /*batch=*/32});
  std::vector<Verdict> out(packets.size());
  engine.process_packets(
      packets, /*now=*/0.0,
      [&](std::size_t s) -> Gateway& { return *probes[s]; }, out);
  std::size_t total = 0;
  for (const auto& probe : probes) total += probe->seen();
  EXPECT_EQ(total, packets.size());
}

TEST(BatchIdentity, FlowKeyDerivationsAgree) {
  // The batched path derives cache keys from the precomputed hash; the
  // scalar path from the tuple. Both overloads must agree, or a cache
  // entry written by one path would be invisible to the other.
  const auto packets = make_stream(0xabcdULL);
  for (const auto& pkt : packets) {
    const FlowKey from_tuple = make_flow_key(pkt.vni, pkt.inner);
    const FlowKey from_hash = make_flow_key(pkt.vni, pkt.inner.hash());
    EXPECT_EQ(from_tuple, from_hash);
  }
}

}  // namespace
}  // namespace sf::dataplane

// The XGW-H path table against the Walker. Cache hits never run the
// pipeline: they charge the registry and time the packet from
// XgwH::path_info(), and every verdict is emitted from the table. So for
// every outcome path, fold on and off, both shards, every entry pipe, peer
// chains of 0-3 hops and IPv4 and IPv6 inner packets, the table's passes,
// bridged bits, egress pipe and counter charges must equal what a Walker
// walk (a burst of one) reports and bumps.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "xgwh/compression_plan.hpp"
#include "xgwh/xgwh.hpp"

namespace sf::xgwh {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;
using Path = XgwH::Path;

constexpr std::uint16_t kDeniedPort = 23;

struct Case {
  Path path;
  net::OverlayPacket packet;
  unsigned route_hits;
};

/// One address per outcome a routed chain end can give, per family.
struct Family {
  const char* any;       // default route
  const char* local;     // local /16
  const char* idc;       // IDC tunnel prefix
  const char* region;    // cross-region tunnel prefix
  const char* vm;        // mapped VM
  const char* unmapped;  // inside the local /16, no mapping
  const char* tunnel_dst;
  const char* region_dst;
  const char* unrouted;  // no route at all
  const char* internet_dst;
};
const Family kV4{"0.0.0.0/0", "10.0.0.0/16", "20.0.0.0/8",  "30.0.0.0/8",
                 "10.0.1.1",  "10.0.9.9",    "20.0.0.1",    "30.0.0.1",
                 "40.0.0.1",  "93.184.216.34"};
const Family kV6{"::/0",     "fd00::/16", "fd20::/16", "fd30::/16",
                 "fd00::1:1", "fd00::9:9", "fd20::1",   "fd30::1",
                 "fd40::1",   "2001:db8::1"};

/// The next VNI at or after `from` whose hash picks `shard`.
net::Vni vni_on(unsigned shard, net::Vni& from) {
  while (XgwH::shard_of_vni(from) != shard) ++from;
  return from++;
}

/// Installs peer chains of 0-3 hops entering on each shard (each hop
/// flips shard), ending at a routed tenant or an internet-only tenant;
/// two-VNI peer loops entering on each shard; and an ACL rule denying
/// kDeniedPort. Returns one case per reachable path, chain and family.
std::vector<Case> install(XgwH& gw) {
  std::vector<Case> cases;
  net::Vni next = 1000;
  const auto peer = [](net::Vni to) {
    return tables::VxlanRouteAction{RouteScope::kPeer, to, {}};
  };
  const auto packet = [](net::Vni vni, const char* dst,
                         std::uint16_t dst_port = 80) {
    net::OverlayPacket p;
    p.vni = vni;
    p.inner.src = IpAddr::must_parse(IpAddr::must_parse(dst).is_v4()
                                         ? "10.9.0.1"
                                         : "fd09::1");
    p.inner.dst = IpAddr::must_parse(dst);
    p.inner.proto = 6;
    p.inner.dst_port = dst_port;
    p.payload_size = 200;
    return p;
  };
  for (unsigned shard : {0u, 1u}) {
    for (unsigned hops = 0; hops <= 3; ++hops) {
      for (const bool internet : {false, true}) {
        std::vector<net::Vni> chain = {vni_on(shard, next)};
        for (unsigned h = 0; h < hops; ++h) {
          chain.push_back(vni_on(1 - XgwH::shard_of_vni(chain.back()), next));
        }
        const net::Vni entry = chain.front();
        const net::Vni end = chain.back();
        for (const Family* f : {&kV4, &kV6}) {
          for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
            gw.install_route(chain[i], IpPrefix::must_parse(f->any),
                             peer(chain[i + 1]));
          }
          if (internet) {
            gw.install_route(end, IpPrefix::must_parse(f->any),
                             {RouteScope::kInternet, 0, {}});
            cases.push_back(
                {Path::kInternet, packet(entry, f->internet_dst), hops + 1});
            continue;
          }
          gw.install_route(end, IpPrefix::must_parse(f->local),
                           {RouteScope::kLocal, 0, {}});
          gw.install_route(
              end, IpPrefix::must_parse(f->idc),
              {RouteScope::kIdc, 0, net::Ipv4Addr(198, 51, 100, 1)});
          gw.install_route(
              end, IpPrefix::must_parse(f->region),
              {RouteScope::kCrossRegion, 0, net::Ipv4Addr(203, 0, 113, 1)});
          gw.install_mapping({end, IpAddr::must_parse(f->vm)},
                             {net::Ipv4Addr(172, 16, 0, 1)});
          const unsigned hits = hops + 1;
          cases.push_back({Path::kLocal, packet(entry, f->vm), hits});
          cases.push_back({Path::kVmMiss, packet(entry, f->unmapped), hits});
          cases.push_back({Path::kTunnel, packet(entry, f->tunnel_dst), hits});
          cases.push_back({Path::kTunnel, packet(entry, f->region_dst), hits});
          cases.push_back({Path::kRouteMiss, packet(entry, f->unrouted), hops});
          cases.push_back(
              {Path::kAclDeny, packet(entry, f->vm, kDeniedPort), 0});
        }
      }
    }
    const net::Vni a = vni_on(shard, next);
    const net::Vni b = vni_on(1 - shard, next);
    for (const Family* f : {&kV4, &kV6}) {
      gw.install_route(a, IpPrefix::must_parse(f->any), peer(b));
      gw.install_route(b, IpPrefix::must_parse(f->any), peer(a));
      cases.push_back({Path::kPeerLoop, packet(a, f->vm), 4});
      cases.push_back(
          {Path::kInvalidVni, packet(net::kMaxVni + 1 + shard, f->vm), 0});
    }
  }
  tables::AclRule deny;
  deny.dst_port = kDeniedPort;
  deny.verdict = tables::AclVerdict::kDeny;
  deny.priority = 1;
  gw.add_acl_rule(deny);
  return cases;
}

/// Picks the packet's source port so its flow hash steers it into
/// `entry_pipe`: hash bit 0 picks pipe 0 or 2 when folded, the low two
/// bits pick any pipe when unfolded.
void steer(net::OverlayPacket& packet, bool folded, unsigned entry_pipe) {
  for (std::uint32_t port = 1024; port < 65536; ++port) {
    packet.inner.src_port = static_cast<std::uint16_t>(port);
    const std::uint64_t h = packet.inner.hash();
    if ((folded ? (h & 1 ? 2u : 0u) : static_cast<unsigned>(h & 3)) ==
        entry_pipe) {
      return;
    }
  }
  FAIL() << "no source port steers into pipe " << entry_pipe;
}

std::map<std::string, std::uint64_t> counters(const telemetry::Registry& r) {
  std::map<std::string, std::uint64_t> out;
  r.for_each_counter([&](const std::string& name, const telemetry::Counter& c) {
    out[name] = c.value();
  });
  return out;
}

std::map<std::string, std::uint64_t> delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t d = value - (it == before.end() ? 0 : it->second);
    if (d != 0) out[name] = d;
  }
  return out;
}

void check_fold(bool folded) {
  XgwH::Config config;
  config.flow_cache_entries = 0;
  if (!folded) config.compression = asic::CompressionConfig::none();
  XgwH walked(config);   // runs the Walker
  XgwH charged(config);  // charges from the table
  const std::vector<Case> cases = install(walked);
  install(charged);

  std::map<Path, std::size_t> covered;
  const std::vector<unsigned> entry_pipes =
      folded ? std::vector<unsigned>{0, 2} : std::vector<unsigned>{0, 1, 2, 3};
  for (const unsigned entry_pipe : entry_pipes) {
    for (Case c : cases) {
      steer(c.packet, folded, entry_pipe);
      SCOPED_TRACE(testing::Message()
                   << "fold " << folded << " pipe " << entry_pipe << " path "
                   << static_cast<int>(c.path) << " vni " << c.packet.vni
                   << " dst " << c.packet.inner.dst.to_string());

      const auto before = counters(walked.registry());
      asic::WalkSummary summary;
      const XgwH::CachedWalk record =
          walked.walk(c.packet, entry_pipe, summary);
      const auto walk_delta = delta(before, counters(walked.registry()));
      ASSERT_EQ(record.path, c.path);
      EXPECT_EQ(record.route_hits, c.route_hits);

      const XgwH::PathInfo& info = walked.path_info(record.path);
      EXPECT_EQ(summary.passes, info.passes);
      EXPECT_EQ(summary.bridged_bits, info.bridged_bits);
      EXPECT_EQ(summary.dropped, info.drop != dataplane::DropReason::kNone);
      EXPECT_EQ(summary.drop_code, static_cast<std::uint8_t>(info.drop));
      // Folded packets leave through the entry-side pipe paired with
      // their shard's loopback pipe (Ingress 1 -> Egress 0, 3 -> 2).
      const unsigned loopback = 1 + 2 * XgwH::shard_of_vni(c.packet.vni);
      const unsigned exit = folded ? loopback - 1 : entry_pipe;
      EXPECT_EQ(summary.egress_pipe, summary.dropped ? 0u : exit);

      // forward() takes the same entry pipe (steer() picked the port) and
      // reports the table's passes, egress pipe and latency.
      const ForwardResult result = walked.forward(c.packet);
      EXPECT_EQ(result.passes, summary.passes);
      EXPECT_EQ(result.egress_pipe, summary.egress_pipe);
      EXPECT_EQ(result.latency_us, summary.latency_us);

      const auto before_charge = counters(charged.registry());
      charged.charge(record.path, entry_pipe,
                     charged.loopback_pipe_of(c.packet.vni), record.route_hits);
      EXPECT_EQ(delta(before_charge, counters(charged.registry())), walk_delta);
      ++covered[c.path];
    }
  }
  EXPECT_EQ(covered.size(), XgwH::kPathCount);
}

TEST(XgwHPaths, TableMatchesWalker) {
  check_fold(/*folded=*/true);
  check_fold(/*folded=*/false);
}

/// The gress a walk on `path` ends in: the last gress it visits.
asic::PathSlot last_gress(const XgwH& gw, Path path) {
  const unsigned visits = gw.path_info(path).visits;
  unsigned gress = 0;
  while (visits >> (gress + 1) != 0) ++gress;
  return static_cast<asic::PathSlot>(gress);
}

// The placer bills each table at the gress where a built XgwH reads it: an
// ACL deny ends its walk in the ACL stage's gress, a peer loop in the route
// stage's (Fig. 14: the entry ingress and the loopback egress). For every
// folded config, every ACL and route demand compute_demands emits must
// carry that gress.
TEST(XgwHPaths, PlacerBillsTablesWhereTheWalkReadsThem) {
  std::vector<asic::CompressionConfig> configs;
  for (const char* steps : {"a", "ab", "abc", "abcd", "abcde"}) {
    configs.push_back(config_for_steps(steps));
  }
  configs.push_back(asic::CompressionConfig::all());
  asic::GatewayWorkload workload;
  workload.acl_rules = 1000;
  for (const asic::CompressionConfig& compression : configs) {
    XgwH::Config config;
    config.compression = compression;
    config.flow_cache_entries = 0;
    const XgwH gw(config);
    const asic::PathSlot acl = last_gress(gw, Path::kAclDeny);
    const asic::PathSlot route = last_gress(gw, Path::kPeerLoop);
    EXPECT_EQ(acl, asic::PathSlot::kFrontIngress);
    EXPECT_EQ(route, asic::PathSlot::kBackEgress);
    std::size_t checked = 0;
    for (const asic::TableDemand& demand :
         asic::compute_demands(config.chip, workload, compression)) {
      if (demand.name == "acl") {
        EXPECT_EQ(demand.slot, acl);
        ++checked;
      } else if (demand.name.starts_with("vxlan_route")) {
        EXPECT_EQ(demand.slot, route) << demand.name;
        ++checked;
      }
    }
    EXPECT_GE(checked, 2u);
  }
}

}  // namespace
}  // namespace sf::xgwh

// XGW-H against an independent forwarding model
// (tests/reference/forwarding_model.hpp). Every other XGW-H check compares
// the gateway with itself — cache on vs off, burst 1 vs 32, the path table
// vs the Walker — so a decision rule all of them share passes them all.
// Here seeded random topologies (nested v4/v6 prefixes of every scope,
// peer chains and loops, VM-NC mappings, deny rules) drive forward() and
// process_batch_indexed at bursts of 1 and 32, flow cache on and off,
// folded and unfolded, with TableOpBatch churn between bursts. Each
// verdict's action, drop reason and outer addresses must equal the
// model's. The model follows each op's reported status, so a VM-NC
// install the device rejects for capacity stays absent from it.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "reference/forwarding_model.hpp"
#include "xgwh/xgwh.hpp"

namespace sf::xgwh {
namespace {

using dataplane::TableOp;
using dataplane::TableOpStatus;
using reference::ForwardingModel;

constexpr std::uint16_t kDeniedPort = 23;
constexpr std::uint16_t kTenantDeniedPort = 8080;
constexpr std::size_t kTenants = 8;
constexpr net::Vni kVniBase = 1000;
constexpr net::Vni kUnknownVni = 5000;

enum class Drive { kForward, kBurst1, kBurst32 };

struct Mode {
  bool folded = true;
  bool cached = true;
  Drive drive = Drive::kForward;
};

std::string describe(const Mode& mode) {
  static const char* kDrives[] = {"forward", "burst1", "burst32"};
  return std::string(mode.folded ? "folded" : "unfolded") + "/" +
         (mode.cached ? "cache-on" : "cache-off") + "/" +
         kDrives[static_cast<int>(mode.drive)];
}

void PrintTo(const Mode& mode, std::ostream* os) { *os << describe(mode); }

/// A seeded stream of topology, churn and packets. Addresses come from a
/// small universe so prefixes nest, mappings get hit and flows repeat.
class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool chance(unsigned percent) { return below(100) < percent; }

  net::Vni tenant() {
    return kVniBase + static_cast<net::Vni>(below(kTenants));
  }

  net::IpAddr address(bool v4) {
    const auto a = static_cast<std::uint8_t>(below(4));
    const auto b = static_cast<std::uint8_t>(below(16));
    if (v4) return net::Ipv4Addr(10, 0, a, b);
    return net::Ipv6Addr(0xfd00'0000'0000'0000ULL,
                         (std::uint64_t{a} << 8) | b);
  }

  net::IpPrefix prefix() {
    const bool v4 = chance(60);
    const net::IpAddr base = address(v4);
    if (v4) {
      static constexpr unsigned kLengths[] = {0, 8, 16, 22, 24, 27, 30, 32};
      return net::Ipv4Prefix(base.v4(), kLengths[below(std::size(kLengths))]);
    }
    static constexpr unsigned kLengths[] = {0, 16, 64, 112, 118, 120, 124, 128};
    return net::Ipv6Prefix(base.v6(), kLengths[below(std::size(kLengths))]);
  }

  tables::VxlanRouteAction route_action() {
    const std::uint64_t roll = below(100);
    if (roll < 40) return {tables::RouteScope::kLocal, 0, {}};
    if (roll < 60) return {tables::RouteScope::kPeer, tenant(), {}};
    if (roll < 70) {
      return {tables::RouteScope::kIdc, 0,
              net::Ipv4Addr(198, 51, 100,
                            static_cast<std::uint8_t>(below(250)))};
    }
    if (roll < 80) {
      return {tables::RouteScope::kCrossRegion, 0,
              net::Ipv4Addr(203, 0, 113,
                            static_cast<std::uint8_t>(below(250)))};
    }
    return {tables::RouteScope::kInternet, 0, {}};
  }

  net::Ipv4Addr nc() {
    return net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(below(256)),
                         static_cast<std::uint8_t>(1 + below(250)));
  }

  TableOp op() {
    TableOp op;
    const std::uint64_t roll = below(100);
    if (roll < 35) {
      op.kind = TableOp::Kind::kAddRoute;
      op.vni = tenant();
      op.prefix = prefix();
      op.route_action = route_action();
    } else if (roll < 55) {
      op.kind = TableOp::Kind::kDelRoute;
      op.vni = tenant();
      op.prefix = prefix();
    } else if (roll < 85) {
      op.kind = TableOp::Kind::kAddMapping;
      op.mapping_key = {tenant(), address(chance(60))};
      op.vni = op.mapping_key.vni;
      op.mapping_action = {nc()};
    } else {
      op.kind = TableOp::Kind::kDelMapping;
      op.mapping_key = {tenant(), address(chance(60))};
      op.vni = op.mapping_key.vni;
    }
    return op;
  }

  net::OverlayPacket packet() {
    // Most packets repeat a recent flow, so cached verdicts replay —
    // including across churn that should have invalidated them.
    if (!recent_.empty() && chance(60)) {
      net::OverlayPacket p = recent_[below(recent_.size())];
      p.payload_size = static_cast<std::uint16_t>(64 + below(1200));
      return p;
    }
    net::OverlayPacket p;
    const std::uint64_t roll = below(100);
    p.vni = roll < 3   ? net::kMaxVni + 1 + static_cast<net::Vni>(below(4))
            : roll < 7 ? kUnknownVni
                       : tenant();
    const bool v4 = chance(60);
    p.outer_src_ip = net::Ipv4Addr(192, 0, 2, 1);
    p.outer_dst_ip = net::Ipv4Addr(192, 0, 2, 2);
    p.inner.src = address(v4);
    // A tenth of the destinations lie outside every installed prefix
    // except a default route.
    const net::IpAddr outside =
        v4 ? net::IpAddr(net::Ipv4Addr(93, 184, 216, 34))
           : net::IpAddr(net::Ipv6Addr(0x2001'0db8ULL << 32, 1));
    p.inner.dst = chance(10) ? outside : address(v4);
    p.inner.proto = chance(70) ? 6 : 17;
    p.inner.src_port = static_cast<std::uint16_t>(40000 + below(8));
    const std::uint64_t port = below(100);
    p.inner.dst_port = port < 5    ? kDeniedPort
                       : port < 10 ? kTenantDeniedPort
                                   : (port < 55 ? 80 : 443);
    p.payload_size = static_cast<std::uint16_t>(64 + below(1200));
    if (recent_.size() < 64) {
      recent_.push_back(p);
    } else {
      recent_[below(recent_.size())] = p;
    }
    return p;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<net::OverlayPacket> recent_;
};

reference::Route to_model(const tables::VxlanRouteAction& action) {
  static constexpr reference::Scope kScopes[] = {
      reference::Scope::kLocal, reference::Scope::kPeer,
      reference::Scope::kIdc, reference::Scope::kCrossRegion,
      reference::Scope::kInternet};
  return {kScopes[static_cast<int>(action.scope)], action.next_hop_vni,
          action.remote_endpoint};
}

dataplane::Action to_dataplane(reference::Action action) {
  switch (action) {
    case reference::Action::kDrop: return dataplane::Action::kDrop;
    case reference::Action::kForwardToNc:
      return dataplane::Action::kForwardToNc;
    case reference::Action::kForwardTunnel:
      return dataplane::Action::kForwardTunnel;
    case reference::Action::kFallbackToX86:
      return dataplane::Action::kFallbackToX86;
  }
  return dataplane::Action::kDrop;
}

dataplane::DropReason to_dataplane(reference::Drop drop) {
  switch (drop) {
    case reference::Drop::kNone: return dataplane::DropReason::kNone;
    case reference::Drop::kInvalidVni:
      return dataplane::DropReason::kInvalidVni;
    case reference::Drop::kAclDeny: return dataplane::DropReason::kAclDeny;
    case reference::Drop::kPeerLoop:
      return dataplane::DropReason::kPeerResolutionLoop;
  }
  return dataplane::DropReason::kNone;
}

/// Applies `batch` to the device and follows each op's status in the
/// model. Returns the number of VM-NC installs the device rejected.
std::size_t apply(XgwH& gw, ForwardingModel& model,
                  const dataplane::TableOpBatch& batch) {
  const dataplane::BatchResult result = gw.apply(batch);
  EXPECT_EQ(result.results.size(), batch.size());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TableOp& op = batch.ops[i];
    const TableOpStatus status = result.results[i].status;
    switch (op.kind) {
      case TableOp::Kind::kAddRoute:
        EXPECT_EQ(
            status == TableOpStatus::kDuplicate,
            model.set_route(op.vni, op.prefix, to_model(op.route_action)));
        break;
      case TableOp::Kind::kDelRoute:
        EXPECT_EQ(status == TableOpStatus::kOk,
                  model.erase_route(op.vni, op.prefix));
        break;
      case TableOp::Kind::kAddMapping:
        if (status == TableOpStatus::kCapacityExceeded) {
          EXPECT_FALSE(model.has_mapping(op.mapping_key.vni,
                                         op.mapping_key.vm_ip));
          ++rejected;
          break;
        }
        EXPECT_EQ(status == TableOpStatus::kDuplicate,
                  model.set_mapping(op.mapping_key.vni, op.mapping_key.vm_ip,
                                    op.mapping_action.nc_ip));
        break;
      case TableOp::Kind::kDelMapping:
        EXPECT_EQ(status == TableOpStatus::kOk,
                  model.erase_mapping(op.mapping_key.vni,
                                      op.mapping_key.vm_ip));
        break;
    }
  }
  return rejected;
}

void add_deny(XgwH& gw, ForwardingModel& model, std::optional<net::Vni> vni,
              std::uint16_t dst_port) {
  tables::AclRule rule;
  rule.vni = vni;
  rule.dst_port = dst_port;
  rule.verdict = tables::AclVerdict::kDeny;
  rule.priority = 1;
  gw.add_acl_rule(rule);
  model.deny(vni, dst_port);
}

/// What one run reached, so the test can insist the stream was not
/// trivially one-sided.
struct Coverage {
  std::array<std::size_t, 4> actions{};
  std::array<std::size_t, 4> drops{};
  std::size_t rejected_installs = 0;
  std::size_t cache_hits = 0;
};

/// Drives one device in `mode` against the model; returns how many
/// verdicts disagreed (the first few are reported).
std::size_t run(std::uint64_t seed, const Mode& mode, Coverage& coverage) {
  XgwH::Config config;
  if (!mode.folded) config.compression = asic::CompressionConfig::none();
  config.flow_cache_entries = mode.cached ? 1024 : 0;
  // Odd seeds get a VM-NC table small enough to reject installs.
  config.vm_table_buckets = seed % 2 == 1 ? 8 : 1024;
  // The model does not rate-limit fallback traffic.
  config.fallback_rate_bps = 1e15;
  config.fallback_burst_bytes = 1e15;
  XgwH gw(config);
  ForwardingModel model(config.device_ip, config.x86_next_hop);
  Generator gen(seed);

  add_deny(gw, model, std::nullopt, kDeniedPort);
  dataplane::TableOpBatch initial;
  for (int i = 0; i < 400; ++i) initial.add(gen.op());
  coverage.rejected_installs += apply(gw, model, initial);

  constexpr std::size_t kBursts = 60;
  constexpr std::size_t kBurst = 32;
  std::vector<net::OverlayPacket> base(2 * kBurst);
  std::vector<std::uint64_t> hashes(base.size());
  std::vector<dataplane::Verdict> out(base.size());
  std::vector<std::uint32_t> indices;
  std::size_t mismatches = 0;
  double now = 0;
  for (std::size_t burst = 0; burst < kBursts; ++burst) {
    if (burst == kBursts / 2) {
      add_deny(gw, model, gen.tenant(), kTenantDeniedPort);
    }
    dataplane::TableOpBatch churn;
    for (std::uint64_t i = gen.below(7); i > 0; --i) churn.add(gen.op());
    coverage.rejected_installs += apply(gw, model, churn);

    // The burst's packets sit at every other slot of the base array, the
    // way the sharded engine strides one shared index list.
    indices.clear();
    for (std::size_t k = 0; k < kBurst; ++k) {
      const std::size_t slot = 2 * k + burst % 2;
      base[slot] = gen.packet();
      hashes[slot] = base[slot].inner.hash();
      indices.push_back(static_cast<std::uint32_t>(slot));
    }
    now += 1e-3;
    switch (mode.drive) {
      case Drive::kForward:
        for (const std::uint32_t slot : indices) {
          out[slot] = gw.forward(base[slot], now);
        }
        break;
      case Drive::kBurst1:
        for (const std::uint32_t slot : indices) {
          gw.process_batch_indexed(base, {}, std::span(&slot, 1), now, out);
        }
        break;
      case Drive::kBurst32:
        gw.process_batch_indexed(base, hashes, indices, now, out);
        break;
    }

    for (const std::uint32_t slot : indices) {
      const net::OverlayPacket& packet = base[slot];
      const dataplane::Verdict& got = out[slot];
      const reference::Expected want = model.forward(packet);
      ++coverage.actions[static_cast<int>(want.action)];
      ++coverage.drops[static_cast<int>(want.drop)];
      const bool agree = got.action == to_dataplane(want.action) &&
                         got.drop_reason == to_dataplane(want.drop) &&
                         got.packet.outer_src_ip == want.outer_src &&
                         got.packet.outer_dst_ip == want.outer_dst &&
                         got.packet.vni == packet.vni &&
                         got.packet.inner == packet.inner;
      if (!agree && ++mismatches <= 5) {
        ADD_FAILURE() << "seed " << seed << " " << describe(mode) << " burst "
                      << burst << ": vni " << packet.vni << " "
                      << packet.inner.src.to_string() << " -> "
                      << packet.inner.dst.to_string() << ":"
                      << packet.inner.dst_port << " got action "
                      << static_cast<int>(got.action) << " drop "
                      << static_cast<int>(got.drop_reason) << " outer "
                      << got.packet.outer_dst_ip.to_string()
                      << ", model action " << static_cast<int>(want.action)
                      << " drop " << static_cast<int>(want.drop) << " outer "
                      << want.outer_dst.to_string();
      }
    }
  }
  coverage.cache_hits += gw.flow_cache_stats().hits;
  return mismatches;
}

class ForwardingOracle : public testing::TestWithParam<Mode> {};

TEST_P(ForwardingOracle, AgreesWithModel) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(run(seed, GetParam(), coverage), 0u) << "seed " << seed;
  }
  // The streams reach every action and every modeled drop.
  for (std::size_t a = 0; a < coverage.actions.size(); ++a) {
    EXPECT_GT(coverage.actions[a], 0u) << "action " << a;
  }
  for (std::size_t d = 1; d < coverage.drops.size(); ++d) {
    EXPECT_GT(coverage.drops[d], 0u) << "drop " << d;
  }
  EXPECT_GT(coverage.rejected_installs, 0u);
  if (GetParam().cached) {
    EXPECT_GT(coverage.cache_hits, 0u);
  }
}

std::vector<Mode> all_modes() {
  std::vector<Mode> modes;
  for (const bool folded : {true, false}) {
    for (const bool cached : {true, false}) {
      for (const Drive drive :
           {Drive::kForward, Drive::kBurst1, Drive::kBurst32}) {
        modes.push_back({folded, cached, drive});
      }
    }
  }
  return modes;
}

INSTANTIATE_TEST_SUITE_P(
    XgwH, ForwardingOracle, testing::ValuesIn(all_modes()),
    [](const testing::TestParamInfo<Mode>& info) {
      std::string name = describe(info.param);
      for (char& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace sf::xgwh

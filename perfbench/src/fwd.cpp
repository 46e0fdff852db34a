// fwd_cold and fwd_hot: the XGW-H packet path at cloud-scale tables.
//
// Both drive ShardEngine::process_packets with 4096-packet rx vectors at
// engine burst 32 into 8 XGW-H shard devices, each holding 4096 tenants x
// 32 VM-NC mappings (~12 MB per device, several times a core's L2).
//  * fwd_cold feeds never-repeated flows spread over every tenant: the
//    SoA walk (ALPM directory and bucket, VM-NC digest) does the work and
//    the flow cache only probes and admits.
//  * fwd_hot feeds a seeded Zipf stream over a working set that fits the
//    flow caches, warmed before timing, plus a thin share of fresh flows:
//    cache replay does the work, so a walk speed-up is diluted here and a
//    cache change shows.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dataplane/shard_engine.hpp"
#include "engine_stats.hpp"
#include "oracle.hpp"
#include "workloads.hpp"
#include "xgwh/xgwh.hpp"

namespace pb {
namespace {

using sf::dataplane::Gateway;
using sf::net::OverlayPacket;

struct FwdShape {
  std::uint32_t tenants;
  std::uint32_t hosts;
  std::uint32_t working_set;  // fwd_hot distinct hot flows
};

FwdShape shape_for(Size size) {
  return size == Size::kFull ? FwdShape{4096, 32, 4096}
                             : FwdShape{512, 32, 1024};
}

/// Share of fwd_hot packets drawn from the hot working set; the rest are
/// never-repeated flows, so the measured hit ratio sits just above 0.9.
constexpr double kHotShare = 0.95;
constexpr double kZipfExponent = 0.9;
constexpr int kSetupReps = 5;

using Fleet = std::vector<std::unique_ptr<sf::xgwh::XgwH>>;

/// Device defaults, as the fastpath fixture runs them: each shard's
/// VM-NC table is 4-way set-associative over 2^14 buckets, so a few of the
/// 4096 x 32 mappings overflow their bucket (kCapacityExceeded) and those
/// VMs take the x86 fallback path.
sf::xgwh::XgwH::Config device_config() {
  sf::xgwh::XgwH::Config config;
  config.x86_next_hop = kFwdX86NextHop;
  return config;
}

/// Simulated seconds per rx vector: the clock the fallback meter refills
/// from, so fallback traffic stays far below its rate limit.
constexpr double kVectorClockS = 1e-3;

OverlayPacket make_packet(std::uint32_t tenant, std::uint32_t host,
                          sf::net::Ipv4Addr src, std::uint16_t src_port) {
  OverlayPacket pkt;
  pkt.vni = kFwdVniBase + tenant;
  pkt.inner.src = src;
  pkt.inner.dst = fwd_vm_ip(host);
  pkt.inner.proto = 6;
  pkt.inner.src_port = src_port;
  pkt.inner.dst_port = 80;
  pkt.payload_size = 200;
  return pkt;
}

/// Never-repeated flow number `n`: (source, source port) is a bijection of
/// n, the tenant and host are seeded draws.
OverlayPacket cold_packet(std::uint64_t seed, std::uint64_t n,
                          const FwdShape& shape) {
  const std::uint64_t h = mix64(seed ^ mix64(n));
  const auto src = sf::net::Ipv4Addr(static_cast<std::uint32_t>(
      (10u << 24) | (1u << 23) | ((n / 60000) & 0x7fffff)));
  return make_packet(static_cast<std::uint32_t>(h % shape.tenants),
                     static_cast<std::uint32_t>((h >> 32) % shape.hosts), src,
                     static_cast<std::uint16_t>(1024 + n % 60000));
}

/// Hot flow `f` of the working set: a seeded tenant/host, distinct port.
OverlayPacket hot_packet(std::uint64_t seed, std::uint32_t f,
                         const FwdShape& shape) {
  const std::uint64_t h = mix64(seed * 31 + 7 + f);
  return make_packet(static_cast<std::uint32_t>(h % shape.tenants),
                     static_cast<std::uint32_t>((h >> 32) % shape.hosts),
                     sf::net::Ipv4Addr(10, 0, 2,
                                       static_cast<std::uint8_t>(1 + f % 250)),
                     static_cast<std::uint16_t>(40000 + f));
}

/// The install plan of one device: per tenant a local 10.0.0.0/16 route
/// and `hosts` VM-NC mappings, one batch per tenant.
std::vector<sf::dataplane::TableOpBatch> install_plan(const FwdShape& shape) {
  std::vector<sf::dataplane::TableOpBatch> plan(shape.tenants);
  for (std::uint32_t v = 0; v < shape.tenants; ++v) {
    const sf::net::Vni vni = kFwdVniBase + v;
    plan[v].add_route(
        vni, sf::net::Ipv4Prefix(sf::net::Ipv4Addr(10, 0, 0, 0), 16),
        sf::tables::VxlanRouteAction{sf::tables::RouteScope::kLocal, 0, {}});
    for (std::uint32_t h = 0; h < shape.hosts; ++h) {
      plan[v].add_mapping(sf::tables::VmNcKey{vni, fwd_vm_ip(h)},
                          sf::tables::VmNcAction{fwd_nc(v, h)});
    }
  }
  return plan;
}

/// Zipf(kZipfExponent) cumulative weights over working-set ranks.
std::vector<double> zipf_cdf(std::uint32_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

struct Fixture {
  Fleet fleet;
  /// Per (tenant, host): did every device report the mapping installed?
  /// A mapping that overflowed its table must fall back, never forward.
  std::vector<std::uint8_t> installed;
  std::vector<OverlayPacket> hot;  // working set, rank order
  std::vector<double> cdf;
};

Fixture build_fixture(const RunArgs& args, bool hot, const FwdShape& shape,
                      sf::dataplane::ShardEngine& engine, SetupLedger& setup,
                      Report& report) {
  SetupLedger::Rep rep;
  Fixture fx;
  const auto plan = install_plan(shape);
  if (hot) {
    for (std::uint32_t f = 0; f < shape.working_set; ++f) {
      fx.hot.push_back(hot_packet(args.seed, f, shape));
    }
    fx.cdf = zipf_cdf(shape.working_set);
  }
  rep.generated = now_ns();
  for (std::size_t s = 0; s < kShards; ++s) {
    fx.fleet.push_back(
        std::make_unique<sf::xgwh::XgwH>(device_config()));
  }
  rep.constructed = now_ns();
  std::uint64_t ops = 0, failed = 0, overflowed = 0;
  constexpr std::uint8_t kUnseen = 2;  // no device has reported yet
  std::vector<std::uint8_t> installed(shape.tenants * shape.hosts, kUnseen);
  for (auto& device : fx.fleet) {
    for (std::uint32_t v = 0; v < shape.tenants; ++v) {
      const sf::dataplane::BatchResult result = device->apply(plan[v]);
      ops += plan[v].size();
      // Op 0 is the route; ops 1..hosts the mappings, in host order.
      failed += sf::dataplane::succeeded(result.results[0].status) ? 0 : 1;
      for (std::uint32_t h = 0; h < shape.hosts; ++h) {
        const auto status = result.results[1 + h].status;
        const bool ok = sf::dataplane::succeeded(status);
        const bool full =
            status == sf::dataplane::TableOpStatus::kCapacityExceeded;
        overflowed += full ? 1 : 0;
        std::uint8_t& slot = installed[v * shape.hosts + h];
        if ((!ok && !full) || (slot != kUnseen && slot != ok)) ++failed;
        slot = ok ? 1 : 0;
      }
    }
  }
  fx.installed = std::move(installed);
  if (hot) {
    // Admission caches a flow on its second miss: two passes over the
    // working set leave every hot flow cached.
    std::vector<sf::dataplane::Verdict> out(fx.hot.size());
    for (int pass = 0; pass < 2; ++pass) {
      engine.process_packets(
          fx.hot, 0.0,
          [&](std::size_t shard) -> Gateway& { return *fx.fleet[shard]; },
          out);
    }
  }
  setup.record(rep, report);
  report.note("table_routes", static_cast<double>(shape.tenants * kShards));
  report.note("table_mappings",
              static_cast<double>(shape.tenants) * shape.hosts * kShards);
  report.note("install_ops", static_cast<double>(ops));
  report.note("install_overflowed", static_cast<double>(overflowed));
  report.checks(ops, failed);
  return fx;
}

}  // namespace

void run_fwd(const RunArgs& args, bool hot, Report& report) {
  const FwdShape shape = shape_for(args.size);
  sf::dataplane::ShardEngine engine({kShards, kWorkers, kBurst});

  SetupLedger setup;
  Fixture fx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fx = Fixture{};  // release the previous repetition first
    fx = build_fixture(args, hot, shape, engine, setup, report);
  }
  setup.report(report);

  std::vector<TracedGateway> traced;
  traced.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    traced.emplace_back(*fx.fleet[s], Layer::kXgwhBatch,
                        static_cast<std::uint32_t>(s));
  }
  const std::function<Gateway&(std::size_t)> plain_for =
      [&](std::size_t shard) -> Gateway& { return *fx.fleet[shard]; };
  const std::function<Gateway&(std::size_t)> traced_for =
      [&](std::size_t shard) -> Gateway& { return traced[shard]; };

  Rng rng(args.seed ^ 0xf00d);
  std::vector<OverlayPacket> packets(kRxVector);
  std::vector<sf::dataplane::Verdict> verdicts(kRxVector);
  std::uint64_t cold_n = 0;
  CallLedger ledger;
  std::uint64_t failed = 0, fallbacks = 0;

  const CacheTotals cache0 = CacheTotals::of(fx.fleet);
  const Usage u0 = Usage::now();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(args.seconds * 1e9);
  TraceBlocks blocks(args.trace, start);
  for (std::int64_t now = start; now < deadline; now = now_ns()) {
    const bool tracing = blocks.at(now);
    for (auto& pkt : packets) {
      if (hot && rng.unit() < kHotShare) {
        const double u = rng.unit();
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(fx.cdf.begin(), fx.cdf.end(), u) -
            fx.cdf.begin());
        pkt = fx.hot[std::min(rank, fx.hot.size() - 1)];
      } else {
        pkt = cold_packet(args.seed, cold_n++, shape);
      }
    }
    const std::uint64_t step = ledger.steps;
    current_step() = step;
    const std::int64_t t0 = now_ns();
    const double clock = kVectorClockS * static_cast<double>(step);
    {
      std::optional<ScopedSpan> root;
      if (tracing) {
        root.emplace(Layer::kEngineCall, step, 0,
                     static_cast<std::uint32_t>(packets.size()));
      }
      engine.process_packets(packets, clock, tracing ? traced_for : plain_for,
                             verdicts);
    }
    ledger.add(tracing, seconds_since(t0), packets.size());

    for (std::size_t i = 0; i < packets.size(); ++i) {
      const auto key = fwd_plan_key(packets[i].vni, packets[i].inner.dst,
                                    shape.tenants, shape.hosts);
      const auto& v = verdicts[i];
      bool ok = false;
      if (key && fx.installed[key->first * shape.hosts + key->second]) {
        ok = v.action == sf::dataplane::Action::kForwardToNc &&
             v.packet.outer_dst_ip ==
                 sf::net::IpAddr(fwd_nc(key->first, key->second));
      } else if (key) {
        ok = v.action == sf::dataplane::Action::kFallbackToX86 &&
             v.packet.outer_dst_ip == sf::net::IpAddr(kFwdX86NextHop);
        ++fallbacks;
      }
      failed += ok ? 0 : 1;
    }
  }
  const Usage run = Usage::now() - u0;
  const double packets_total = ledger.untraced_pkts + ledger.traced_pkts;
  report.checks(static_cast<std::uint64_t>(packets_total), failed);
  report.note("fallback_share", static_cast<double>(fallbacks) / packets_total);

  report_packet_path(report, ledger);
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report_usage(report, "proc.run", run);
  report_cache(report, CacheTotals::of(fx.fleet) - cache0, packets_total);
  if (args.trace) {
    report_engine_spans(report, Tracer::instance().collect(),
                        Layer::kXgwhBatch, "xgwh.batch");
    report_trace_overhead(report, ledger.untraced_pkts, ledger.untraced_s,
                          ledger.traced_pkts, ledger.traced_s);
  }
}

}  // namespace pb

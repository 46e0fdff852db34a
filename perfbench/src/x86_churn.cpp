// x86_churn: writes beside reads on the software gateway.
//
// 8 XGW-x86 shard nodes hold 64 tenants x 16 VM-NC mappings and forward a
// hot stream in 16384-packet rx vectors through ShardEngine::process_packets
// while the engine's mutator thread applies a stamped op stream through
// UpdatePlan, about one op per 120 packets: VM migrations that re-target
// live mappings, and tenant onboarding/offboarding routes that keep the
// tables' size flat.
// It exercises RCU publish, pinned lookups and per-VNI cache invalidation,
// so a read-path gain that costs the write path (or the reverse) shows
// here and nowhere else.

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dataplane/shard_engine.hpp"
#include "engine_stats.hpp"
#include "oracle.hpp"
#include "workloads.hpp"
#include "x86/xgw_x86.hpp"

namespace pb {
namespace {

using sf::dataplane::Gateway;
using sf::dataplane::TableOp;
using sf::dataplane::TimedTableOp;
using sf::net::OverlayPacket;

constexpr std::uint32_t kTenants = 64;
constexpr std::uint32_t kHosts = 16;
constexpr std::uint32_t kWorkingSet = 512;
constexpr std::size_t kPacketsPerOp = 120;
/// Packets per process_packets call. Each call starts the engine's mutator
/// thread afresh, so a longer vector keeps thread start-up and the
/// end-of-call join from dominating the rate on a busy host.
constexpr std::size_t kChurnVector = 4 * kRxVector;
constexpr std::size_t kOpsPerVector = kChurnVector / kPacketsPerOp;
/// Onboarded tenants live this many onboarding ops before offboarding.
constexpr std::uint32_t kOnboardedLive = 64;
/// Onboarding cycles through this many tenant VNIs. A bounded pool keeps
/// the nodes' per-VNI state in steady state: every VNI ever mutated keeps
/// a cache-generation entry, so an unbounded stream of fresh VNIs slows
/// every lookup as the run goes on and the rate would depend on run length.
constexpr std::uint32_t kOnboardPool = 2 * kOnboardedLive;
constexpr int kSetupReps = 15;

sf::net::Vni tenant_vni(std::uint32_t v) { return 100 + v; }

sf::net::Ipv4Addr vm_ip(std::uint32_t v, std::uint32_t h) {
  return sf::net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 1,
                           static_cast<std::uint8_t>(1 + h));
}

using Fleet = std::vector<std::unique_ptr<sf::x86::XgwX86>>;

/// Hot flow `f`: tenant f % 64, host (f / 64) % 16, distinct source.
OverlayPacket hot_packet(std::uint32_t f) {
  const std::uint32_t v = f % kTenants;
  OverlayPacket pkt;
  pkt.vni = tenant_vni(v);
  pkt.inner.src = sf::net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 2,
                                    static_cast<std::uint8_t>(1 + f % 250));
  pkt.inner.dst = vm_ip(v, (f / kTenants) % kHosts);
  pkt.inner.proto = 6;
  pkt.inner.src_port = static_cast<std::uint16_t>(40000 + f);
  pkt.inner.dst_port = 80;
  pkt.payload_size = 200;
  return pkt;
}

/// The seeded op stream, generated one rx vector at a time. Even slots are
/// migrations of a random live mapping to one of 8 NC generations; odd
/// slots alternate onboarding a fresh tenant route and offboarding the
/// tenant onboarded kOnboardedLive onboardings earlier.
class OpStream {
 public:
  explicit OpStream(std::uint64_t seed) : rng_(seed ^ 0xc0ffee) {}

  struct Migration {
    std::uint32_t tenant, host;
    sf::net::Ipv4Addr nc;
  };

  /// Fills `ops` for one vector; `migrations[k]` is set for migration ops.
  void next(std::vector<TimedTableOp>& ops,
            std::vector<std::optional<Migration>>& migrations) {
    ops.clear();
    migrations.clear();
    std::vector<std::uint64_t> at(kOpsPerVector);
    for (auto& a : at) a = rng_.below(kChurnVector);
    std::sort(at.begin(), at.end());
    for (std::size_t k = 0; k < kOpsPerVector; ++k) {
      TimedTableOp timed;
      timed.apply_index = at[k];
      TableOp& op = timed.op;
      std::optional<Migration> migration;
      if (slot_++ % 2 == 0) {
        const auto v = static_cast<std::uint32_t>(rng_.below(kTenants));
        const auto h = static_cast<std::uint32_t>(rng_.below(kHosts));
        const auto nc = sf::net::Ipv4Addr(
            172, static_cast<std::uint8_t>(17 + rng_.below(8)),
            static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(1 + h));
        op.kind = TableOp::Kind::kAddMapping;
        op.vni = tenant_vni(v);
        op.mapping_key = sf::tables::VmNcKey{op.vni, vm_ip(v, h)};
        op.mapping_action = sf::tables::VmNcAction{nc};
        migration = Migration{v, h, nc};
      } else if (onboarded_ < kOnboardedLive || route_slot_++ % 2 == 0) {
        op.kind = TableOp::Kind::kAddRoute;
        op.vni = onboard_vni(onboarded_);
        op.prefix = onboard_prefix(onboarded_);
        op.route_action =
            sf::tables::VxlanRouteAction{sf::tables::RouteScope::kLocal, 0, {}};
        ++onboarded_;
      } else {
        op.kind = TableOp::Kind::kDelRoute;
        op.vni = onboard_vni(offboarded_);
        op.prefix = onboard_prefix(offboarded_);
        ++offboarded_;
      }
      ops.push_back(timed);
      migrations.push_back(migration);
    }
  }

 private:
  static sf::net::Vni onboard_vni(std::uint64_t t) {
    return static_cast<sf::net::Vni>(0x30000 + t % kOnboardPool);
  }
  static sf::net::Ipv4Prefix onboard_prefix(std::uint64_t t) {
    return sf::net::Ipv4Prefix(
        sf::net::Ipv4Addr(10, static_cast<std::uint8_t>(64 + t % kOnboardPool),
                          0, 0),
        16);
  }

  Rng rng_;
  std::uint64_t slot_ = 0;
  std::uint64_t route_slot_ = 0;
  std::uint64_t onboarded_ = 0;
  std::uint64_t offboarded_ = 0;
};

Fleet build_fleet(SetupLedger& setup, Report& report) {
  SetupLedger::Rep rep;
  sf::dataplane::TableOpBatch plan;
  for (std::uint32_t v = 0; v < kTenants; ++v) {
    plan.add_route(
        tenant_vni(v),
        sf::net::Ipv4Prefix(
            sf::net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 0, 0), 16),
        sf::tables::VxlanRouteAction{sf::tables::RouteScope::kLocal, 0, {}});
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      plan.add_mapping(sf::tables::VmNcKey{tenant_vni(v), vm_ip(v, h)},
                       sf::tables::VmNcAction{ChurnModel::initial_nc(v, h)});
    }
  }
  rep.generated = now_ns();
  Fleet fleet;
  for (std::size_t s = 0; s < kShards; ++s) {
    fleet.push_back(
        std::make_unique<sf::x86::XgwX86>(sf::x86::XgwX86::Config{}));
  }
  rep.constructed = now_ns();
  std::uint64_t failed = 0;
  for (auto& node : fleet) failed += node->apply(plan).failed;
  setup.record(rep, report);
  report.note("table_routes", static_cast<double>(kTenants * kShards));
  report.note("table_mappings",
              static_cast<double>(kTenants * kHosts * kShards));
  report.checks(plan.size() * kShards, failed);
  return fleet;
}

}  // namespace

void run_x86_churn(const RunArgs& args, Report& report) {
  sf::dataplane::ShardEngine engine({kShards, kWorkers, kBurst});
  SetupLedger setup;
  Fleet fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.clear();
    fleet = build_fleet(setup, report);
  }
  setup.report(report);

  std::vector<TracedGateway> traced;
  traced.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    traced.emplace_back(*fleet[s], Layer::kX86Batch,
                        static_cast<std::uint32_t>(s));
  }
  const std::function<Gateway&(std::size_t)> plain_for =
      [&](std::size_t shard) -> Gateway& { return *fleet[shard]; };
  const std::function<Gateway&(std::size_t)> traced_for =
      [&](std::size_t shard) -> Gateway& { return traced[shard]; };

  ChurnModel model(kTenants, kHosts);
  OpStream stream(args.seed);
  Rng rng(args.seed ^ 0xbeef);
  std::vector<OverlayPacket> packets(kChurnVector);
  std::vector<sf::dataplane::Verdict> verdicts(kChurnVector);
  std::vector<TimedTableOp> ops;
  std::vector<std::optional<OpStream::Migration>> migrations;
  std::vector<sf::dataplane::TableOpStatus> status(kOpsPerVector * kShards);
  std::vector<double> apply_us(kOpsPerVector);
  std::vector<std::uint8_t> done(kOpsPerVector);

  CallLedger ledger;
  LogHistogram apply_samples;  // ~50k ops/s: too many to keep
  double apply_s = 0, applied_ops = 0, mutator_cpu_s = 0;
  std::uint64_t failed = 0, checked = 0, midstream_changes = 0;
  std::uint64_t advances = 0, ahead = 0;
  double limbo_max = 0;

  const CacheTotals cache0 = CacheTotals::of(fleet);
  const Usage u0 = Usage::now();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(args.seconds * 1e9);
  TraceBlocks blocks(args.trace, start);
  for (std::int64_t now = start; now < deadline; now = now_ns()) {
    const bool tracing = blocks.at(now);
    for (auto& pkt : packets) {
      pkt = hot_packet(static_cast<std::uint32_t>(rng.below(kWorkingSet)));
    }
    stream.next(ops, migrations);
    std::fill(done.begin(), done.end(), 0);
    const std::uint64_t step = ledger.steps;
    current_step() = step;

    std::vector<std::uint64_t> base(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      base[s] = fleet[s]->table_version();
    }
    double cpu0 = 0;
    sf::dataplane::ShardEngine::UpdatePlan plan;
    plan.updates = ops;
    plan.apply = [&](std::size_t k) {
      if (k == 0) cpu0 = thread_cpu_s();
      const auto batch = sf::dataplane::TableOpBatch::single(ops[k].op);
      const std::int64_t a0 = now_ns();
      for (std::size_t s = 0; s < kShards; ++s) {
        std::optional<ScopedSpan> span;
        if (tracing) {
          span.emplace(Layer::kX86Apply, step, static_cast<std::uint32_t>(s), 1);
        }
        status[k * kShards + s] = fleet[s]->apply(batch).status();
      }
      apply_us[k] = 1e-3 * static_cast<double>(now_ns() - a0);
      std::atomic_ref<std::uint8_t>(done[k]).store(1, std::memory_order_release);
      if (k + 1 == ops.size()) mutator_cpu_s += thread_cpu_s() - cpu0;
    };
    plan.advance = [&](std::size_t shard, std::size_t visible) {
      if (!tracing || visible == 0) {
        fleet[shard]->set_lookup_seq(base[shard] + visible);
        return;
      }
      Span span;
      span.layer = Layer::kRcuAdvance;
      span.step = step;
      span.shard = static_cast<std::uint32_t>(shard);
      span.items = static_cast<std::uint32_t>(visible);
      span.flag = std::atomic_ref<std::uint8_t>(done[visible - 1])
                      .load(std::memory_order_acquire) == 0;
      span.t0 = now_ns();
      fleet[shard]->set_lookup_seq(base[shard] + visible);
      span.t1 = now_ns();
      Tracer::instance().record(span);
    };

    const std::int64_t t0 = now_ns();
    {
      std::optional<ScopedSpan> root;
      if (tracing) {
        root.emplace(Layer::kEngineCall, step, 0,
                     static_cast<std::uint32_t>(packets.size()));
      }
      engine.process_packets(packets, 0.0, tracing ? traced_for : plain_for,
                             verdicts, plan);
    }
    ledger.add(tracing, seconds_since(t0), packets.size());
    for (auto& node : fleet) node->set_lookup_seq(std::nullopt);

    for (std::size_t k = 0; k < ops.size(); ++k) {
      if (!tracing) {
        apply_samples.add(apply_us[k]);
        apply_s += 1e-6 * apply_us[k];
        applied_ops += 1;
      }
      for (std::size_t s = 0; s < kShards; ++s) {
        failed += sf::dataplane::succeeded(status[k * kShards + s]) ? 0 : 1;
      }
    }
    checked += ops.size() * kShards;
    for (const auto& node : fleet) {
      limbo_max = std::max(limbo_max, static_cast<double>(node->limbo_nodes()));
    }

    // Oracle: walk the packets in index order, applying each migration to
    // the model before the first packet whose index exceeds its stamp.
    std::size_t next_op = 0;
    std::vector<sf::net::Ipv4Addr> at_start(kTenants * kHosts);
    for (std::uint32_t v = 0; v < kTenants; ++v) {
      for (std::uint32_t h = 0; h < kHosts; ++h) {
        at_start[v * kHosts + h] = model.nc(v, h);
      }
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      while (next_op < ops.size() && ops[next_op].apply_index < i) {
        if (const auto& m = migrations[next_op]) {
          model.migrate(m->tenant, m->host, m->nc);
        }
        ++next_op;
      }
      const std::uint32_t v = packets[i].vni - tenant_vni(0);
      const std::uint32_t h = (packets[i].inner.dst.v4().value() & 255) - 1;
      const sf::net::Ipv4Addr expected = model.nc(v, h);
      if (expected != at_start[v * kHosts + h]) ++midstream_changes;
      const bool ok =
          verdicts[i].action == sf::dataplane::Action::kForwardToNc &&
          verdicts[i].packet.outer_dst_ip == sf::net::IpAddr(expected);
      failed += ok ? 0 : 1;
    }
    checked += packets.size();
    for (; next_op < ops.size(); ++next_op) {
      if (const auto& m = migrations[next_op]) {
        model.migrate(m->tenant, m->host, m->nc);
      }
    }
  }
  const Usage run = Usage::now() - u0;
  report.checks(checked, failed);

  report_packet_path(report, ledger);
  report.set("update_ops_per_s", applied_ops / apply_s, "ops/s");
  report.set("update_apply_p99_us", apply_samples.quantile(0.99), "us");
  report.note("update_apply_samples",
              static_cast<double>(apply_samples.count()));
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report_usage(report, "proc.run", run);
  const double packets_total = ledger.untraced_pkts + ledger.traced_pkts;
  report_cache(report, CacheTotals::of(fleet) - cache0, packets_total);
  report.set("oracle.midstream_changes", static_cast<double>(midstream_changes),
             "count");
  report.set("rcu.limbo_nodes_max", limbo_max, "count");
  report.set("rcu.mutator_cpu_s", mutator_cpu_s, "s");
  if (args.trace) {
    const std::vector<Span> spans = Tracer::instance().collect();
    report_engine_spans(report, spans, Layer::kX86Batch, "x86.batch");
    double x86_apply_ns = 0, x86_applies = 0;
    for (const Span& s : spans) {
      if (s.layer == Layer::kX86Apply) {
        x86_apply_ns += s.ns();
        x86_applies += 1;
      } else if (s.layer == Layer::kRcuAdvance) {
        ++advances;
        ahead += s.flag ? 1 : 0;
      }
    }
    report.set("x86.apply.us_per_op",
               x86_applies > 0 ? 1e-3 * x86_apply_ns / x86_applies : 0, "us");
    report.set("x86.apply.calls", x86_applies, "count");
    report.set("rcu.reader_ahead_share",
               advances > 0 ? static_cast<double>(ahead) /
                                  static_cast<double>(advances)
                            : 0,
               "ratio");
    report.set("rcu.advances", static_cast<double>(advances), "count");
    report_trace_overhead(report, ledger.untraced_pkts, ledger.untraced_s,
                          ledger.traced_pkts, ledger.traced_s);
  }
}

}  // namespace pb

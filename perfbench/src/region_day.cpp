// region_day: a whole Sailfish region stepped through simulated time.
//
// The region has the shape of the operational figure benches (400 VPCs,
// 12k VMs, 20k flows, 4 clusters of 10+10 XGW-H devices, 4 XGW-x86 nodes)
// with the controller's incremental placement engine on. Each step is one
// simulated 600 s interval on the diurnal/festival envelope:
//   1. one Controller::apply batch of VM migrations plus an onboarding (even
//      steps) or the matching offboarding (odd steps), so tables stay flat;
//   2. one SailfishRegion::simulate_interval at the envelope's rate;
//   3. a 1024-packet probe sample (uniform over flows, so every path is
//      probed) through SailfishRegion::process;
//   4. a telemetry_snapshot() once per simulated hour.
// It is the only workload that runs the interval engine, the controller
// fan-out and the incremental placer, and its set-up carries the
// per-device table allocation cost.

#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "core/region.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "workload/flowgen.hpp"
#include "workload/topology.hpp"
#include "workload/traffic_pattern.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using sf::core::SailfishRegion;

constexpr double kIntervalS = 600;
constexpr std::size_t kIntervalsPerWeek = 7 * 24 * 6;
constexpr std::size_t kIntervalsPerHour = 6;
constexpr std::size_t kProbePackets = 1024;
constexpr std::size_t kMigrationsPerStep = 16;
constexpr double kBaseTbps = 24;
constexpr int kSetupReps = 3;
/// The region itself is a fixed fixture, like the fwd_* tables: --seed
/// drives the op stream, the probe samples and the interval jitter. Seeded
/// topologies differ in their v4/v6 and peering mix, which would move every
/// metric with the seed rather than with the code.
constexpr std::uint64_t kTopologySeed = 2021;
constexpr std::size_t kStepBlock = kIntervalsPerHour;

struct Inputs {
  sf::workload::RegionTopology topology;
  std::vector<sf::workload::Flow> flows;
  SailfishRegion::Config config;
  sf::workload::TrafficPattern pattern;
};

/// The operational-figure region shape, seeded.
Inputs generate(std::uint64_t seed, double scale) {
  Inputs in;
  sf::workload::TopologyConfig topo;
  topo.vpc_count = static_cast<std::size_t>(400 * scale);
  topo.total_vms = static_cast<std::size_t>(12'000 * scale);
  topo.nc_count = static_cast<std::size_t>(1'500 * scale);
  topo.seed = seed;
  in.topology = sf::workload::generate_topology(topo);

  sf::workload::FlowGenConfig flows;
  flows.flow_count = static_cast<std::size_t>(20'000 * scale);
  flows.zipf_exponent = 0.5;
  flows.seed = seed + 1;
  in.flows = sf::workload::generate_flows(in.topology, flows);
  // Heavy flows are MTU-sized bulk transfers.
  std::vector<std::size_t> by_weight(in.flows.size());
  std::iota(by_weight.begin(), by_weight.end(), std::size_t{0});
  std::sort(by_weight.begin(), by_weight.end(),
            [&](std::size_t a, std::size_t b) {
              return in.flows[a].weight > in.flows[b].weight;
            });
  for (std::size_t rank = 0; rank < by_weight.size() / 10; ++rank) {
    in.flows[by_weight[rank]].packet_size = 1500;
  }

  auto& controller = in.config.controller;
  controller.cluster_template.primary_devices = 10;
  controller.cluster_template.backup_devices = 10;
  controller.max_clusters = 4;
  controller.initial_clusters = 4;
  controller.routes_water_level = static_cast<std::size_t>(600 * scale);
  controller.placement_enabled = true;
  in.config.x86_nodes = 4;
  in.config.interval_engine = sf::dataplane::ShardPlan{16, 2, 0};

  in.pattern.base_bps = kBaseTbps * 1e12;
  in.pattern.festival_start_day = 5.0;
  in.pattern.festival_end_day = 6.0;
  return in;
}

struct Fixture {
  Inputs inputs;
  std::unique_ptr<SailfishRegion> region;
};

Fixture build(double scale, SetupLedger& setup, Report& report) {
  SetupLedger::Rep rep;
  Fixture fx;
  fx.inputs = generate(kTopologySeed, scale);
  rep.generated = now_ns();
  fx.region = std::make_unique<SailfishRegion>(fx.inputs.config);
  rep.constructed = now_ns();
  const std::size_t admitted = fx.region->install_topology(fx.inputs.topology);
  setup.record(rep, report);
  report.note("table_routes",
              static_cast<double>(fx.inputs.topology.total_routes()));
  report.note("table_mappings",
              static_cast<double>(fx.inputs.topology.total_vms()));
  report.note("admitted_vpcs", static_cast<double>(admitted));
  report.check(admitted == fx.inputs.topology.vpcs.size());
  return fx;
}

/// Bounds every IntervalReport must satisfy.
bool report_in_bounds(const SailfishRegion::IntervalReport& r,
                      double offered_bps) {
  const auto finite_nonneg = [](double x) {
    return std::isfinite(x) && x >= 0;
  };
  return r.offered_bps == offered_bps && finite_nonneg(r.offered_pps) &&
         r.offered_pps > 0 && finite_nonneg(r.dropped_pps) &&
         r.dropped_pps <= r.offered_pps * (1 + 1e-9) && r.drop_rate >= 0 &&
         r.drop_rate <= 1 && finite_nonneg(r.fallback_bps) &&
         r.fallback_bps <= r.offered_bps * (1 + 1e-9) && r.fallback_ratio >= 0 &&
         r.fallback_ratio <= 1 && finite_nonneg(r.x86_max_core_utilization) &&
         finite_nonneg(r.p99_latency_us);
}

sf::net::OverlayPacket probe_packet(const sf::workload::Flow& flow) {
  sf::net::OverlayPacket pkt;
  pkt.vni = flow.vni;
  pkt.inner = flow.tuple;
  pkt.payload_size = static_cast<std::uint16_t>(flow.packet_size - 100);
  return pkt;
}

/// A VM address no generated VM uses: host 250 of the VM's own subnet.
sf::net::IpAddr onboard_ip(const sf::net::IpAddr& sibling) {
  if (sibling.is_v4()) {
    return sf::net::Ipv4Addr((sibling.v4().value() & ~0xffu) | 250u);
  }
  return sf::net::Ipv6Addr(sibling.v6().hi(), 251);
}

}  // namespace

void run_region_day(const RunArgs& args, Report& report) {
  const double scale = args.size == Size::kFull ? 1.0 : 0.1;
  SetupLedger setup;
  Fixture fx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fx = Fixture{};
    fx = build(scale, setup, report);
  }
  setup.report(report);
  SailfishRegion& region = *fx.region;
  const auto& topology = fx.inputs.topology;
  const auto& flows = fx.inputs.flows;

  // The oracle's desired state: the topology as generated, then every
  // migration and (off)boarding the loop applies.
  RegionModel model;
  for (const auto& vpc : topology.vpcs) {
    for (const auto& vm : vpc.vms) model.set_vm(vpc.vni, vm.ip, vm.nc_ip);
  }

  Rng rng(args.seed ^ 0x5eed);
  const sf::asic::PlacementEngine* placement =
      region.controller().placement_engine();
  const sf::asic::PlacementStats placement_start = placement->stats();
  const auto retry_start = region.controller().retry_stats();

  Samples step_us, apply_us, simulate_us, probe_us;
  std::vector<double> step_s, probe_s, probe_pkts;
  double apply_s = 0, untraced_step_s = 0;
  double traced_step_s = 0, traced_steps = 0;
  double ops_applied = 0, sw_path = 0;
  std::uint64_t checked = 0, failed = 0, probes_total = 0;
  std::optional<sf::tables::VmNcKey> onboarded;
  std::vector<sf::net::OverlayPacket> packets(kProbePackets);
  std::vector<const sf::workload::Flow*> probe_flows(kProbePackets);
  std::vector<sf::dataplane::Verdict> verdicts(kProbePackets);

  const Usage u0 = Usage::now();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(args.seconds * 1e9);
  TraceBlocks blocks(args.trace, start);
  std::uint64_t k = 0;
  for (std::int64_t now = start; now < deadline; now = now_ns(), ++k) {
    const bool tracing = blocks.at(now);
    const double t_sim =
        static_cast<double>(k % kIntervalsPerWeek) * kIntervalS;
    const double rate = sf::workload::rate_at(fx.inputs.pattern, t_sim);

    // Inputs of this step (untimed): the op batch and the probe sample.
    sf::dataplane::TableOpBatch batch;
    struct Expect {
      sf::tables::VmNcKey key;
      std::optional<sf::net::Ipv4Addr> nc;  // nullopt: offboarded
    };
    std::vector<Expect> expect;
    for (std::size_t m = 0; m < kMigrationsPerStep; ++m) {
      const auto& vpc = topology.vpcs[rng.below(topology.vpcs.size())];
      const auto& vm = vpc.vms[rng.below(vpc.vms.size())];
      const auto nc = topology.ncs[rng.below(topology.ncs.size())];
      const sf::tables::VmNcKey key{vpc.vni, vm.ip};
      batch.add_mapping(key, sf::tables::VmNcAction{nc});
      expect.push_back({key, nc});
    }
    if (onboarded) {
      batch.del_mapping(*onboarded);
      expect.push_back({*onboarded, std::nullopt});
      onboarded.reset();
    } else {
      const auto& vpc = topology.vpcs[rng.below(topology.vpcs.size())];
      const sf::tables::VmNcKey key{vpc.vni, onboard_ip(vpc.vms.front().ip)};
      const auto nc = topology.ncs[rng.below(topology.ncs.size())];
      batch.add_mapping(key, sf::tables::VmNcAction{nc});
      expect.push_back({key, nc});
      onboarded = key;
    }
    for (std::size_t i = 0; i < kProbePackets; ++i) {
      probe_flows[i] = &flows[rng.below(flows.size())];
      packets[i] = probe_packet(*probe_flows[i]);
    }
    const bool snapshot = k % kIntervalsPerHour == 0;

    // The timed step.
    const std::uint64_t step = k;
    const std::int64_t s0 = now_ns();
    sf::dataplane::BatchResult result;
    {
      std::optional<ScopedSpan> span;
      if (tracing) {
        span.emplace(Layer::kControllerApply, step, 0,
                     static_cast<std::uint32_t>(batch.size()));
      }
      result = region.controller().apply(batch);
    }
    const std::int64_t s1 = now_ns();
    SailfishRegion::IntervalReport interval;
    {
      std::optional<ScopedSpan> span;
      if (tracing) span.emplace(Layer::kSimulateInterval, step);
      interval = region.simulate_interval(flows, rate, k);
    }
    const std::int64_t s2 = now_ns();
    {
      std::optional<ScopedSpan> span;
      if (tracing) {
        span.emplace(Layer::kRegionProcess, step, 0,
                     static_cast<std::uint32_t>(kProbePackets));
      }
      for (std::size_t i = 0; i < kProbePackets; ++i) {
        verdicts[i] = region.process(packets[i], t_sim);
      }
    }
    const std::int64_t s3 = now_ns();
    std::uint64_t snapshot_packets = 0;
    if (snapshot) {
      std::optional<ScopedSpan> span;
      if (tracing) span.emplace(Layer::kTelemetrySnapshot, step);
      snapshot_packets =
          region.telemetry_snapshot().counter("region.packets");
    }
    const std::int64_t s4 = now_ns();

    const double step_seconds = 1e-9 * static_cast<double>(s4 - s0);
    if (tracing) {
      traced_step_s += step_seconds;
      traced_steps += 1;
    } else {
      step_s.push_back(step_seconds);
      untraced_step_s += step_seconds;
      step_us.add(step_seconds * 1e6);
      apply_s += 1e-9 * static_cast<double>(s1 - s0);
      apply_us.add(1e-3 * static_cast<double>(s1 - s0));
      ops_applied += static_cast<double>(batch.size());
      simulate_us.add(1e-3 * static_cast<double>(s2 - s1));
      probe_s.push_back(1e-9 * static_cast<double>(s3 - s2));
      probe_pkts.push_back(kProbePackets);
      probe_us.add(1e-3 * static_cast<double>(s3 - s2));
    }

    // Oracle (untimed): op statuses, the model update, the report bounds
    // and every probe verdict.
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const bool ok = i < result.results.size() &&
                      sf::dataplane::succeeded(result.results[i].status);
      failed += ok ? 0 : 1;
      if (!ok) continue;
      if (expect[i].nc) {
        model.set_vm(expect[i].key.vni, expect[i].key.vm_ip, *expect[i].nc);
      } else {
        model.remove_vm(expect[i].key.vni, expect[i].key.vm_ip);
      }
    }
    checked += expect.size();
    failed += report_in_bounds(interval, rate) ? 0 : 1;
    checked += 1;
    probes_total += kProbePackets;
    if (snapshot) {
      // The region counts every packet it processed.
      failed += snapshot_packets == probes_total ? 0 : 1;
      checked += 1;
    }
    for (std::size_t i = 0; i < kProbePackets; ++i) {
      const auto& flow = *probe_flows[i];
      const auto& v = verdicts[i];
      bool ok = false;
      if (flow.scope == sf::tables::RouteScope::kInternet) {
        ok = v.action == sf::dataplane::Action::kSnatToInternet &&
             v.software_path;
      } else {
        const auto nc = model.nc_of(flow.tuple.dst);
        ok = nc && v.action == sf::dataplane::Action::kForwardToNc &&
             v.packet.outer_dst_ip == sf::net::IpAddr(*nc);
      }
      failed += ok ? 0 : 1;
      sw_path += v.software_path ? 1 : 0;
    }
    checked += kProbePackets;
  }
  const Usage run = Usage::now() - u0;
  report.checks(checked, failed);

  // The step rate is the median over simulated hours (kStepBlock steps,
  // one snapshot each) and the probe rate the median over probe samples;
  // p99s are medians over kP99Block-step blocks. A step is one interval,
  // and its rx vector is the probe sample. About one step in six takes a
  // snapshot, so step_p90_us measures a snapshot step.
  const double steps = static_cast<double>(step_us.count());
  const std::vector<double> ones(step_s.size(), 1.0);
  const double probe_mpps = blocked_rate(probe_pkts, probe_s, 1) / 1e6;
  const double step_rate = blocked_rate(ones, step_s, kStepBlock);
  report.set("fwd_mpps", probe_mpps, "Mpkt/s");
  report.set("rx_vec_p50_us", probe_us.median(), "us");
  report.set("rx_vec_p90_us", probe_us.quantile(0.90), "us");
  report.set("rx_vec_p99_us", blocked_quantile(probe_us, 0.99, kP99Block),
             "us");
  report.set("steps_per_s", step_rate, "1/s");
  report.set("step_p90_us", step_us.quantile(0.90), "us");
  report.set("step_p99_us", blocked_quantile(step_us, 0.99, kP99Block), "us");
  report.set("intervals_per_s", step_rate, "1/s");
  report.set("interval_p99_us", blocked_quantile(simulate_us, 0.99, kP99Block),
             "us");
  report.set("probe_mpps", probe_mpps, "Mpkt/s");
  report.set("update_ops_per_s", ops_applied / apply_s, "ops/s");
  report.set("update_apply_p99_us",
             blocked_quantile(apply_us, 0.99, kP99Block), "us");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.note("rx_vec_samples", static_cast<double>(probe_us.count()));
  report.note("interval_samples", steps);
  report.note("update_apply_samples", static_cast<double>(apply_us.count()));
  report_usage(report, "proc.run", run);

  const sf::asic::PlacementStats& ps = placement->stats();
  const double deltas =
      static_cast<double>(ps.delta_applies - placement_start.delta_applies);
  const double recomputes = static_cast<double>(
      ps.full_recomputes - placement_start.full_recomputes);
  report.set("asic.placement.delta_applies", deltas, "count");
  report.set("asic.placement.full_recomputes", recomputes, "count");
  report.set("asic.placement.recompute_share",
             deltas + recomputes > 0 ? recomputes / (deltas + recomputes) : 0,
             "ratio");
  const auto& retry = region.controller().retry_stats();
  report.set("cluster.controller.deferred_ops",
             static_cast<double>(region.controller().deferred_op_count() +
                                 (retry.deferred - retry_start.deferred)),
             "count");
  report.set("cluster.controller.retries",
             static_cast<double>(retry.retries - retry_start.retries),
             "count");
  report.set("core.region.sw_path_share",
             sw_path / static_cast<double>(probes_total), "ratio");

  if (args.trace) {
    double apply_ns = 0, apply_ops = 0, sim_ns = 0, sims = 0, proc_ns = 0,
           proc_pkts = 0, snap_ns = 0, snaps = 0;
    for (const Span& s : Tracer::instance().collect()) {
      switch (s.layer) {
        case Layer::kControllerApply:
          apply_ns += s.ns();
          apply_ops += s.items;
          break;
        case Layer::kSimulateInterval:
          sim_ns += s.ns();
          sims += 1;
          break;
        case Layer::kRegionProcess:
          proc_ns += s.ns();
          proc_pkts += s.items;
          break;
        case Layer::kTelemetrySnapshot:
          snap_ns += s.ns();
          snaps += 1;
          break;
        default:
          break;
      }
    }
    report.set("cluster.controller.apply_us_per_op",
               apply_ops > 0 ? 1e-3 * apply_ns / apply_ops : 0, "us");
    report.set("cluster.controller.ops", apply_ops, "count");
    report.set("core.region.simulate_us", sims > 0 ? 1e-3 * sim_ns / sims : 0,
               "us");
    report.set("core.region.process_ns_per_pkt",
               proc_pkts > 0 ? proc_ns / proc_pkts : 0, "ns");
    report.set("core.region.probe_pkts", proc_pkts, "count");
    report.set("telemetry.snapshot_us", snaps > 0 ? 1e-3 * snap_ns / snaps : 0,
               "us");
    report.set("telemetry.snapshots", snaps, "count");
    report_trace_overhead(report, steps, untraced_step_s, traced_steps,
                          traced_step_s);
  }
}

}  // namespace pb

// Placement at 10x the paper's scale: full placement wall time at
// 1M/5M/10M routes (multi-pipeline chips, cross-path spill enabled), the
// calibrated ALPM estimate vs a real Alpm build at every scale, and the
// incremental re-placement latency (Placer::replace) against the full
// recompute a delta-blind controller would pay — an O(N) desired-state
// recount plus demand modeling plus placement.
//
// Asserted as a side effect (FATAL on violation):
//   * the analytic ALPM shape estimate tracks Alpm::stats() within 5%
//     at 1M, 5M and 10M routes;
//   * every scale's placement is feasible on its chip;
//   * delta applies (<= 1k-entry deltas) are >= 50x faster than the
//     full recompute at p50;
//   * after 200 deltas the incremental layout's occupancy accounting is
//     identical to a from-scratch placement of the same workload.
//
// Numbers land in BENCH_placement.json; EXPERIMENTS.md quotes them.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "asic/placement.hpp"
#include "asic/placer.hpp"
#include "bench_util.hpp"
#include "sim/table_printer.hpp"
#include "tables/alpm.hpp"
#include "tables/tcam.hpp"
#include "workload/rng.hpp"
#include "workload/zipf.hpp"
#include "xgwh/compression_plan.hpp"

using namespace sf;

namespace {

constexpr std::size_t kDeltas = 200;
constexpr int kFullReps = 5;

struct AlpmProbe {
  std::size_t routes = 0;
  std::size_t partitions = 0;
  double measured_fill = 0;
  std::size_t estimated_partitions = 0;
  double estimate_error = 0;
  double build_s = 0;
};

// Same generator the fill curve was calibrated on: Zipf VPC shares,
// 75/25 v4/v6, bucket bound 32.
AlpmProbe probe_alpm(std::size_t total) {
  tables::Alpm<tables::VxlanRouteAction>::Config config;
  config.max_bucket_entries = 32;
  tables::Alpm<tables::VxlanRouteAction> alpm(config);
  workload::Rng rng(2024);
  const std::size_t vpcs = 60'000;
  const std::vector<double> shares = workload::zipf_weights(vpcs, 1.0);
  std::size_t inserted = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t v = 0; v < vpcs && inserted < total; ++v) {
    const net::Vni vni = static_cast<net::Vni>(1000 + v);
    const bool v6 = rng.chance(0.25);
    const std::size_t routes = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(shares[v] * static_cast<double>(total)));
    for (std::size_t r = 0; r < routes && inserted < total; ++r) {
      if (v6) {
        alpm.insert(vni, net::Ipv6Prefix(net::Ipv6Addr(rng.next_u64(), 0), 64),
                    {});
      } else {
        alpm.insert(
            vni,
            net::Ipv4Prefix(
                net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), 24),
            {});
      }
      ++inserted;
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;

  const auto stats = alpm.stats();
  const unsigned dir_slices = (tables::kPooledRouteKeyBits + 43) / 44;
  const tables::AlpmShapeEstimate estimate =
      tables::estimate_alpm_shape(stats.routes, 32, dir_slices, 1);
  AlpmProbe probe;
  probe.routes = stats.routes;
  probe.partitions = stats.partitions;
  probe.measured_fill = stats.average_fill;
  probe.estimated_partitions = estimate.partitions;
  probe.estimate_error =
      std::abs(static_cast<double>(estimate.partitions) -
               static_cast<double>(stats.partitions)) /
      static_cast<double>(stats.partitions);
  probe.build_s = dt.count();
  return probe;
}

// Entry tags for the desired-state store a delta-blind controller has to
// recount before every placement. The scan is the O(N) term the
// incremental engine deletes.
enum class Tag : std::uint8_t {
  kRouteV4,
  kRouteV6,
  kMapV4,
  kMapV6,
  kMeter,
  kCounter,
};

std::vector<Tag> desired_state(const asic::GatewayWorkload& w) {
  std::vector<Tag> entries;
  entries.reserve(w.vxlan_routes_v4 + w.vxlan_routes_v6 + w.vm_maps_v4 +
                  w.vm_maps_v6 + w.meters + w.counters);
  entries.insert(entries.end(), w.vxlan_routes_v4, Tag::kRouteV4);
  entries.insert(entries.end(), w.vxlan_routes_v6, Tag::kRouteV6);
  entries.insert(entries.end(), w.vm_maps_v4, Tag::kMapV4);
  entries.insert(entries.end(), w.vm_maps_v6, Tag::kMapV6);
  entries.insert(entries.end(), w.meters, Tag::kMeter);
  entries.insert(entries.end(), w.counters, Tag::kCounter);
  return entries;
}

asic::GatewayWorkload recount(const std::vector<Tag>& entries,
                              const asic::GatewayWorkload& fixed) {
  asic::GatewayWorkload w = asic::empty_gateway_workload();
  w.digest_conflicts = fixed.digest_conflicts;
  w.acl_rules = fixed.acl_rules;
  w.steering_entries = fixed.steering_entries;
  for (const Tag tag : entries) {
    switch (tag) {
      case Tag::kRouteV4: ++w.vxlan_routes_v4; break;
      case Tag::kRouteV6: ++w.vxlan_routes_v6; break;
      case Tag::kMapV4: ++w.vm_maps_v4; break;
      case Tag::kMapV6: ++w.vm_maps_v6; break;
      case Tag::kMeter: ++w.meters; break;
      case Tag::kCounter: ++w.counters; break;
    }
  }
  return w;
}

asic::WorkloadDelta random_delta(workload::Rng& rng) {
  asic::WorkloadDelta delta;
  const auto step = [&](std::uint64_t bound) {
    const std::int64_t size = static_cast<std::int64_t>(rng.uniform(bound));
    return rng.chance(0.5) ? size : -size;
  };
  delta.vxlan_routes_v4 = step(400);
  delta.vxlan_routes_v6 = step(150);
  delta.vm_maps_v4 = step(300);
  delta.vm_maps_v6 = step(100);
  delta.meters = step(50);
  if (delta.empty()) delta.vxlan_routes_v4 = 1;
  return delta;
}

bool accounting_parity(const asic::Placement& live,
                       const asic::Placement& fresh) {
  for (unsigned p = 0; p < live.chip().pipelines; ++p) {
    for (asic::MemoryKind kind :
         {asic::MemoryKind::kSram, asic::MemoryKind::kTcam}) {
      if (live.pipe_units(p, kind) != fresh.pipe_units(p, kind)) return false;
    }
  }
  return live.feasible() == fresh.feasible();
}

struct ScaleResult {
  std::size_t routes = 0;
  unsigned pipelines = 0;
  AlpmProbe alpm;
  double full_place_ms = 0;
  double delta_p50_us = 0;
  double delta_p99_us = 0;
  double speedup = 0;
  bool feasible = false;
  bool parity = false;
  std::uint64_t delta_applies = 0;
  std::uint64_t full_recomputes = 0;
};

}  // namespace

int main() {
  bench::print_header("Placement scale",
                      "10M-route placement + incremental re-placement");

  const asic::CompressionConfig config = xgwh::config_for_steps("abcdef");

  struct Scale {
    std::size_t routes;
    unsigned pipelines;
  };
  const Scale scales[] = {{1'000'000, 4}, {5'000'000, 8}, {10'000'000, 16}};

  bool fatal = false;
  std::vector<ScaleResult> results;
  for (const Scale& scale : scales) {
    ScaleResult result;
    result.routes = scale.routes;
    result.pipelines = scale.pipelines;

    // ---- calibrated estimate vs a real ALPM build ----------------------
    result.alpm = probe_alpm(scale.routes);
    std::printf(
        "alpm %zuM: routes=%zu partitions=%zu fill=%.4f estimate=%zu "
        "(%.2f%% off) build=%.1fs\n",
        scale.routes / 1'000'000, result.alpm.routes, result.alpm.partitions,
        result.alpm.measured_fill, result.alpm.estimated_partitions,
        100.0 * result.alpm.estimate_error, result.alpm.build_s);
    if (result.alpm.estimate_error > 0.05) {
      std::printf("FATAL: ALPM estimate off by %.2f%% (> 5%%) at %zu "
                  "routes\n",
                  100.0 * result.alpm.estimate_error, scale.routes);
      fatal = true;
    }

    // ---- full placement: O(N) recount + demand modeling + layout -------
    asic::ChipConfig chip;
    chip.pipelines = scale.pipelines;
    const asic::Placer placer(chip);
    asic::GatewayWorkload workload = asic::empty_gateway_workload();
    workload.vxlan_routes_v4 = scale.routes * 3 / 4;
    workload.vxlan_routes_v6 = scale.routes - workload.vxlan_routes_v4;
    workload.vm_maps_v4 = 750'000;
    workload.vm_maps_v6 = 250'000;
    workload.digest_conflicts = 8;
    workload.meters = 430'000;
    workload.counters = 1'500'000;
    workload.steering_entries = 64;

    const std::vector<Tag> entries = desired_state(workload);
    double full_s = 0;
    asic::Placement full_layout;
    for (int rep = 0; rep < kFullReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const asic::GatewayWorkload counted = recount(entries, workload);
      full_layout = placer.place_layout(counted, config);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      if (rep == 0 || dt.count() < full_s) full_s = dt.count();
    }
    result.full_place_ms = full_s * 1e3;
    result.feasible = full_layout.feasible();
    if (!result.feasible) {
      std::printf("FATAL: %zu routes infeasible on %u pipelines\n",
                  scale.routes, scale.pipelines);
      fatal = true;
    }

    // ---- incremental deltas --------------------------------------------
    workload::Rng rng(7);
    asic::Placement live = full_layout;
    asic::GatewayWorkload current = live.workload();
    std::vector<double> delta_us;
    delta_us.reserve(kDeltas);
    for (std::size_t i = 0; i < kDeltas; ++i) {
      const asic::WorkloadDelta delta = random_delta(rng);
      const auto t0 = std::chrono::steady_clock::now();
      live = placer.replace(live, delta);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      delta_us.push_back(dt.count() * 1e6);
      current = delta.applied_to(current);
    }
    std::sort(delta_us.begin(), delta_us.end());
    result.delta_p50_us = delta_us[kDeltas / 2];
    result.delta_p99_us = delta_us[kDeltas * 99 / 100];
    result.speedup = (full_s * 1e6) / result.delta_p50_us;
    result.delta_applies = live.stats().delta_applies;
    result.full_recomputes = live.stats().full_recomputes;
    if (result.speedup < 50) {
      std::printf("FATAL: delta apply only %.1fx faster than full "
                  "recompute at %zu routes (target >= 50x)\n",
                  result.speedup, scale.routes);
      fatal = true;
    }

    // ---- occupancy parity vs from-scratch ------------------------------
    result.parity = accounting_parity(live, placer.place_layout(current,
                                                                config));
    if (!result.parity) {
      std::printf("FATAL: incremental layout diverged from from-scratch "
                  "placement at %zu routes\n",
                  scale.routes);
      fatal = true;
    }
    results.push_back(result);
  }

  sim::TablePrinter table({"Routes", "Pipes", "Full place", "Delta p50",
                           "Delta p99", "Speedup", "ALPM est err"});
  for (const ScaleResult& r : results) {
    table.add_row({std::to_string(r.routes / 1'000'000) + "M",
                   std::to_string(r.pipelines),
                   sim::format_double(r.full_place_ms, 2) + " ms",
                   sim::format_double(r.delta_p50_us, 1) + " us",
                   sim::format_double(r.delta_p99_us, 1) + " us",
                   sim::format_double(r.speedup, 0) + "x",
                   bench::pct(r.alpm.estimate_error, 2)});
  }
  table.print();
  bench::print_note(
      "full place = O(N) desired-state recount + demand modeling + "
      "place_layout; deltas are <= 1k-entry WorkloadDeltas through "
      "Placer::replace(). Targets: ALPM estimate within 5%, delta p50 "
      ">= 50x full place, occupancy parity after 200 deltas.");

  std::ofstream json("BENCH_placement.json");
  json << "{\n"
       << "  \"bench\": \"placement_scale\",\n"
       << "  \"compression_steps\": \"abcdef\",\n"
       << "  \"deltas_per_scale\": " << kDeltas << ",\n"
       << "  \"delta_max_magnitude\": 1000,\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    json << "    {\"routes\": " << r.routes
         << ", \"pipelines\": " << r.pipelines
         << ", \"full_place_ms\": " << r.full_place_ms
         << ", \"delta_p50_us\": " << r.delta_p50_us
         << ", \"delta_p99_us\": " << r.delta_p99_us
         << ", \"speedup_vs_full\": " << r.speedup
         << ", \"delta_applies\": " << r.delta_applies
         << ", \"full_recomputes\": " << r.full_recomputes
         << ", \"feasible\": " << (r.feasible ? "true" : "false")
         << ", \"occupancy_parity\": " << (r.parity ? "true" : "false")
         << ",\n     \"alpm\": {\"routes\": " << r.alpm.routes
         << ", \"partitions\": " << r.alpm.partitions
         << ", \"measured_fill\": " << r.alpm.measured_fill
         << ", \"estimated_partitions\": " << r.alpm.estimated_partitions
         << ", \"estimate_error\": " << r.alpm.estimate_error
         << ", \"build_s\": " << r.alpm.build_s << "}}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return fatal ? 1 : 0;
}

// The interval model's bytes, pinned: every IntervalReport field (as %a
// hex floats, so a last-bit change shows) and the region.engine.* counters
// of four regions, each run at 1 and at 8 interval threads.
//
//   * region_day: the operational-figure region shape at scale 0.1 (4
//     clusters of 10+10 devices, 4 x86 nodes) over 24 diurnal hours, with
//     one cluster-0 device failed for the second half and all but one of
//     its primaries for the last quarter (so the survivor overloads);
//   * punt_saturated: overflow tenants without a DPU tier, so the punt
//     lanes saturate and the overflow share is scaled down;
//   * dpu: the same overflow with DPU placements;
//   * guard: a region whose tenant budgets shed its four heaviest tenants.
//
// A change to the interval model's arithmetic (even its summation order)
// moves these bytes; a pure speed-up must not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/sailfish.hpp"
#include "golden.hpp"
#include "workload/traffic_pattern.hpp"

namespace sf::core {
namespace {

void append(std::string& out, const char* format, ...) {
  char line[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof line, format, args);
  va_end(args);
  out += line;
}

void render(std::string& out, std::size_t interval,
            const SailfishRegion::IntervalReport& r) {
  append(out, "interval %zu\n", interval);
  append(out, "  offered_bps %a offered_pps %a\n", r.offered_bps,
         r.offered_pps);
  append(out, "  dropped_pps %a drop_rate %a\n", r.dropped_pps, r.drop_rate);
  append(out, "  fallback_bps %a fallback_pps %a fallback_ratio %a\n",
         r.fallback_bps, r.fallback_pps, r.fallback_ratio);
  append(out, "  shard_pipe_bps %a %a %a %a\n", r.shard_pipe_bps[0],
         r.shard_pipe_bps[1], r.shard_pipe_bps[2], r.shard_pipe_bps[3]);
  append(out, "  x86_max_core_utilization %a\n", r.x86_max_core_utilization);
  append(out, "  guard_shed_pps %a\n", r.guard_shed_pps);
  for (const auto& tenant : r.guard_tenants) {
    append(out, "  guard_tenant %u offered_pps %a offered_bps %a shed_pps %a "
           "tier %s\n", tenant.vni, tenant.offered_pps, tenant.offered_bps,
           tenant.shed_pps, guard::name(tenant.tier));
  }
  append(out, "  overflow_pps %a dpu_pps %a dpu_bps %a overflow_x86_pps %a\n",
         r.overflow_pps, r.dpu_pps, r.dpu_bps, r.overflow_x86_pps);
  append(out, "  punt_queue_occupancy %a p99_latency_us %a "
         "p999_latency_us %a\n", r.punt_queue_occupancy, r.p99_latency_us,
         r.p999_latency_us);
  append(out, "  dpu_flow_entries %zu dpu_table_occupancy %a "
         "dpu_promotions %zu dpu_demotions %zu\n", r.dpu_flow_entries,
         r.dpu_table_occupancy, r.dpu_promotions, r.dpu_demotions);
}

void render_engine_counters(std::string& out, const SailfishRegion& region) {
  const telemetry::Snapshot snapshot = region.telemetry_snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (name.starts_with("region.engine.")) {
      append(out, "%s %llu\n", name.c_str(),
             static_cast<unsigned long long>(value));
    }
  }
}

/// Runs `intervals` intervals at `threads` interval threads and renders
/// every report plus the engine counters. `rate(k)` is interval k's total
/// bps; `before(k, system)` runs ahead of interval k.
template <typename Rate, typename Before>
std::string run(const SailfishOptions& options, std::size_t threads,
                std::size_t intervals, Rate rate, Before before) {
  SailfishSystem system = make_system(options);
  system.region->set_interval_threads(threads);
  std::string out;
  for (std::size_t k = 0; k < intervals; ++k) {
    before(k, system);
    render(out, k, system.region->simulate_interval(system.flows, rate(k), k));
  }
  render_engine_counters(out, *system.region);
  return out;
}

/// Checks the golden at 1 thread and identity at 8.
template <typename Rate, typename Before>
void expect_interval_golden(const std::string& name,
                            const SailfishOptions& options,
                            std::size_t intervals, Rate rate, Before before) {
  const std::string one = run(options, 1, intervals, rate, before);
  expect_golden(name, one);
  EXPECT_EQ(one, run(options, 8, intervals, rate, before));
}

const auto kNothing = [](std::size_t, SailfishSystem&) {};

TEST(RegionIntervalGolden, RegionDayWithFailedDevice) {
  constexpr double kScale = 0.1;
  SailfishOptions options;
  options.topology.vpc_count = static_cast<std::size_t>(400 * kScale);
  options.topology.total_vms = static_cast<std::size_t>(12'000 * kScale);
  options.topology.nc_count = static_cast<std::size_t>(1'500 * kScale);
  options.topology.seed = 2021;
  options.flows.flow_count = static_cast<std::size_t>(20'000 * kScale);
  options.flows.zipf_exponent = 0.5;
  options.flows.seed = 2022;
  auto& controller = options.region.controller;
  controller.cluster_template.primary_devices = 10;
  controller.cluster_template.backup_devices = 10;
  controller.max_clusters = 4;
  controller.initial_clusters = 4;
  controller.routes_water_level = static_cast<std::size_t>(600 * kScale);
  controller.placement_enabled = true;
  options.region.x86_nodes = 4;

  workload::TrafficPattern pattern;
  pattern.base_bps = 24e12;
  constexpr std::size_t kHours = 24;
  const auto rate = [&](std::size_t k) {
    return workload::rate_at(pattern, workload::hours(static_cast<double>(k)));
  };
  const auto before = [&](std::size_t k, SailfishSystem& system) {
    if (k == 0) {
      // Heavy flows are MTU-sized bulk transfers (the region_day shape).
      std::vector<std::size_t> by_weight(system.flows.size());
      std::iota(by_weight.begin(), by_weight.end(), std::size_t{0});
      std::stable_sort(by_weight.begin(), by_weight.end(),
                       [&](std::size_t a, std::size_t b) {
                         return system.flows[a].weight >
                                system.flows[b].weight;
                       });
      for (std::size_t rank = 0; rank < by_weight.size() / 10; ++rank) {
        system.flows[by_weight[rank]].packet_size = 1500;
      }
    }
    // One device down for the second half; for the last quarter, all but
    // one primary, so the survivor overloads and drops.
    cluster::XgwHCluster& cluster = system.region->controller().cluster(0);
    if (k == kHours / 2) cluster.fail_device(3);
    if (k == kHours * 3 / 4) {
      for (const std::size_t d : {0, 1, 2, 4, 5, 6, 7, 8}) {
        cluster.fail_device(d);
      }
    }
  };
  expect_interval_golden("interval_region_day.txt", options, kHours, rate,
                         before);
}

/// The overflow regions' rate: 400 Gbps, stepping up a quarter twice.
const auto kOverflowRate = [](std::size_t k) {
  return 400e9 * (1.0 + 0.25 * static_cast<double>(k % 3));
};

TEST(RegionIntervalGolden, SaturatedPuntLanes) {
  expect_interval_golden("interval_punt_saturated.txt",
                         overflow_options(4.0, false), 6, kOverflowRate,
                         kNothing);
}

TEST(RegionIntervalGolden, DpuPlacements) {
  expect_interval_golden("interval_dpu.txt", overflow_options(4.0, true), 8,
                         kOverflowRate, kNothing);
}

TEST(RegionIntervalGolden, GuardSheds) {
  constexpr double kTotalBps = 100e9;
  // Budget the four heaviest tenants at a third of their full-rate load:
  // over budget at full rate (tier 1, then tier 2), back under it in the
  // quarter-rate intervals (de-escalation).
  const SailfishSystem probe = make_system(quickstart_options());
  std::map<net::Vni, double> share;
  for (const workload::Flow& flow : probe.flows) share[flow.vni] += flow.weight;
  std::vector<std::pair<double, net::Vni>> heaviest;
  for (const auto& [vni, weight] : share) heaviest.emplace_back(weight, vni);
  std::sort(heaviest.rbegin(), heaviest.rend());
  heaviest.resize(4);

  SailfishOptions options = quickstart_options();
  options.region.enable_guard = true;
  options.region.guard.escalate_after = 1;
  options.region.guard.deescalate_after = 2;
  for (const auto& [weight, vni] : heaviest) {
    options.region.guard.tenants.push_back(
        guard::TenantLimit{vni, weight * kTotalBps / 3.0, 0.0});
  }
  const auto rate = [](std::size_t k) {
    return kTotalBps * (k % 4 >= 2 ? 0.25 : 1.0);
  };
  expect_interval_golden("interval_guard.txt", options, 8, rate, kNothing);
}

}  // namespace
}  // namespace sf::core

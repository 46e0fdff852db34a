// Three-tier placement bench (sf::dpu, DESIGN.md §11) — the quickstart
// region with hardware squeezed to a 4-16x table shortfall, so most VPCs
// are overflow-admitted into the software tier. Without the DPU tier the
// whole overflow rides the bounded punt lanes toward x86 and saturates
// them; with it, the TierPlacer's sketches promote the overflow elephants
// onto the DPU flow tables interval by interval. Writes BENCH_dpu.json
// with the placement frontier: blended cost vs p99 latency vs per-tier
// occupancy at each shortfall.
//
// Self-checking — the process exits nonzero if three-tier placement
// regressed, so CI can use it as a smoke test:
//   * every shortfall must actually overflow (software-tier VPCs > 0);
//   * at every shortfall the DPU tier must absorb traffic (dpu_pps > 0)
//     with strictly lower p99 latency AND lower x86 punt-lane occupancy
//     than the DPU-off baseline;
//   * the warmup's interval series must replay byte-identically on 1 and
//     8 interval-engine threads.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sailfish.hpp"

using namespace sf;

namespace {

constexpr double kIntervalBps = 1e11;
constexpr int kWarmupIntervals = 12;
constexpr double kShortfalls[] = {4.0, 8.0, 16.0};

// Relative serving cost per packet, by tier. The ASIC pipeline is the
// unit; the DPU's multiplier comes from its config (a flow-offload box
// costs a few ASIC-packet-equivalents per packet); general-purpose x86
// cores are the expensive last resort.
constexpr double kCostAsic = 1.0;
constexpr double kCostX86 = 16.0;

struct ScenarioResult {
  core::SailfishRegion::IntervalReport report;  // last warmup interval
  std::size_t overflow_vpcs = 0;
  double dpu_cost_units = 0;
};

ScenarioResult run_scenario(double shortfall, bool with_dpu,
                            std::size_t threads = 1) {
  const core::SailfishOptions options =
      core::overflow_options(shortfall, with_dpu);
  core::SailfishSystem system = core::make_system(options);
  system.region->set_interval_threads(threads);
  ScenarioResult result;
  for (int k = 0; k < kWarmupIntervals; ++k) {
    result.report = system.region->simulate_interval(
        system.flows, kIntervalBps, static_cast<std::uint64_t>(k));
  }
  result.overflow_vpcs = system.region->controller().overflow_count();
  result.dpu_cost_units = options.region.dpu_template.cost_units;
  return result;
}

/// Blended serving cost per packet (in ASIC-packet units) over the served
/// population: what the three tiers together spend to carry an average
/// packet this interval.
double blended_cost(const core::SailfishRegion::IntervalReport& report,
                    double dpu_cost_units) {
  const double served = report.offered_pps - report.dropped_pps;
  if (served <= 0) return 0;
  const double x86_pps = report.fallback_pps + report.overflow_x86_pps;
  const double hw_pps =
      std::max(0.0, served - report.dpu_pps - x86_pps);
  return (hw_pps * kCostAsic + report.dpu_pps * dpu_cost_units +
          x86_pps * kCostX86) /
         served;
}

std::string sci(double value) { return sim::format("%.2e", value); }

/// Byte-stable rendering of everything the interval model computes, for
/// the thread-identity comparison.
std::string render(const core::SailfishRegion::IntervalReport& report) {
  return sim::format(
      "offered=%.9e dropped=%.9e fallback=%.9e/%.9e overflow=%.9e "
      "dpu=%.9e/%.9e overflow_x86=%.9e occ=%.9e p99=%.9e entries=%zu "
      "tblocc=%.9e promo=%zu demo=%zu\n",
      report.offered_pps, report.dropped_pps, report.fallback_bps,
      report.fallback_pps, report.overflow_pps, report.dpu_pps,
      report.dpu_bps, report.overflow_x86_pps, report.punt_queue_occupancy,
      report.p99_latency_us, report.dpu_flow_entries,
      report.dpu_table_occupancy, report.dpu_promotions,
      report.dpu_demotions);
}

}  // namespace

int main() {
  bench::print_header("DPU tiering",
                      "4-16x table shortfall vs. the three-tier "
                      "ASIC / DPU / x86 placement frontier");

  // ---- thread identity: the warmup series must not depend on threads ------
  std::string series_one;
  std::string series_eight;
  {
    const core::SailfishOptions options = core::overflow_options(4.0, true);
    core::SailfishSystem one = core::make_system(options);
    core::SailfishSystem eight = core::make_system(options);
    one.region->set_interval_threads(1);
    eight.region->set_interval_threads(8);
    for (int k = 0; k < kWarmupIntervals; ++k) {
      series_one += render(one.region->simulate_interval(
          one.flows, kIntervalBps, static_cast<std::uint64_t>(k)));
      series_eight += render(eight.region->simulate_interval(
          eight.flows, kIntervalBps, static_cast<std::uint64_t>(k)));
    }
  }
  const bool replay_identical = series_one == series_eight;

  // ---- the placement frontier ---------------------------------------------
  struct Point {
    double shortfall = 0;
    std::size_t overflow_vpcs = 0;
    core::SailfishRegion::IntervalReport off;
    core::SailfishRegion::IntervalReport on;
    double cost_off = 0;
    double cost_on = 0;
  };
  std::vector<Point> frontier;
  bool placement_ok = true;
  for (const double shortfall : kShortfalls) {
    const ScenarioResult off = run_scenario(shortfall, false);
    const ScenarioResult on = run_scenario(shortfall, true);
    Point point;
    point.shortfall = shortfall;
    point.overflow_vpcs = on.overflow_vpcs;
    point.off = off.report;
    point.on = on.report;
    point.cost_off = blended_cost(off.report, on.dpu_cost_units);
    point.cost_on = blended_cost(on.report, on.dpu_cost_units);
    frontier.push_back(point);

    const bool ok = on.overflow_vpcs > 0 && point.on.dpu_pps > 0 &&
                    point.on.p99_latency_us < point.off.p99_latency_us &&
                    point.on.punt_queue_occupancy <
                        point.off.punt_queue_occupancy;
    if (!ok) {
      std::fprintf(stderr,
                   "FATAL: %gx shortfall: overflow_vpcs=%zu dpu_pps=%.3e "
                   "p99 %.1f vs %.1f us, punt occupancy %.3f vs %.3f\n",
                   shortfall, on.overflow_vpcs, point.on.dpu_pps,
                   point.on.p99_latency_us, point.off.p99_latency_us,
                   point.on.punt_queue_occupancy,
                   point.off.punt_queue_occupancy);
      placement_ok = false;
    }
  }

  sim::TablePrinter table({"Shortfall", "Overflow VPCs", "p99 off (us)",
                           "p99 DPU (us)", "Punt occ off", "Punt occ DPU",
                           "DPU share", "Cost off", "Cost DPU"});
  for (const Point& point : frontier) {
    const double served =
        point.on.offered_pps - point.on.dropped_pps;
    table.add_row(
        {sim::format_double(point.shortfall, 0) + "x",
         std::to_string(point.overflow_vpcs),
         sim::format_double(point.off.p99_latency_us, 1),
         sim::format_double(point.on.p99_latency_us, 1),
         sim::format_double(point.off.punt_queue_occupancy, 3),
         sim::format_double(point.on.punt_queue_occupancy, 3),
         bench::pct(served > 0 ? point.on.dpu_pps / served : 0),
         sim::format_double(point.cost_off, 2),
         sim::format_double(point.cost_on, 2)});
  }
  table.print();
  std::printf("thread replay              : %s\n",
              replay_identical ? "identical" : "DIVERGED");
  if (!replay_identical) {
    std::fprintf(stderr, "FATAL: interval series diverged across threads\n");
  }

  bench::print_note(
      "at every shortfall the DPU tier must absorb overflow elephants "
      "with lower p99 latency and punt-lane occupancy than the DPU-off "
      "baseline; a nonzero exit means three-tier placement regressed.");

  std::ofstream json("BENCH_dpu.json");
  json << "{\n  \"bench\": \"dpu_tiering\",\n"
       << "  \"interval_bps\": " << sci(kIntervalBps) << ",\n"
       << "  \"warmup_intervals\": " << kWarmupIntervals << ",\n"
       << "  \"replay_identical\": " << (replay_identical ? "true" : "false")
       << ",\n  \"frontier\": [\n";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const Point& point = frontier[i];
    const double served_on = point.on.offered_pps - point.on.dropped_pps;
    json << "    {\"shortfall\": " << point.shortfall
         << ", \"overflow_vpcs\": " << point.overflow_vpcs << ",\n"
         << "     \"baseline\": {\"p99_latency_us\": "
         << sci(point.off.p99_latency_us)
         << ", \"punt_queue_occupancy\": "
         << sci(point.off.punt_queue_occupancy)
         << ", \"drop_rate\": " << sci(point.off.drop_rate)
         << ", \"cost_per_packet\": " << sci(point.cost_off) << "},\n"
         << "     \"dpu\": {\"p99_latency_us\": "
         << sci(point.on.p99_latency_us)
         << ", \"punt_queue_occupancy\": "
         << sci(point.on.punt_queue_occupancy)
         << ", \"drop_rate\": " << sci(point.on.drop_rate)
         << ", \"cost_per_packet\": " << sci(point.cost_on)
         << ",\n             \"dpu_share\": "
         << sci(served_on > 0 ? point.on.dpu_pps / served_on : 0)
         << ", \"dpu_flow_entries\": " << point.on.dpu_flow_entries
         << ", \"dpu_table_occupancy\": "
         << sci(point.on.dpu_table_occupancy) << "}}"
         << (i + 1 < frontier.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_dpu.json\n");

  return placement_ok && replay_identical ? 0 : 1;
}

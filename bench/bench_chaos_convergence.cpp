// Chaos convergence bench — replays three fixed-seed randomized fault
// schedules (device crashes and flaps, port error bursts, link loss,
// update-channel outages, provisioning storms, mid-upgrade failures)
// against a full Sailfish region and reports the recovery metrics:
// time-to-detect, time-to-reroute, probe packets blackholed during
// convergence, and the drop-rate-under-failure series (the Fig. 19 band
// with faults in it). Writes BENCH_chaos.json for tracking.
//
// Self-checking — the process exits nonzero if any run violates the
// recovery contract, so CI can use it as a chaos smoke test:
//   * every run must converge with zero leaked DR state (no stale
//     isolated-port ledgers, no devices still failed, no parked ops);
//   * detection and reroute latencies must stay within the health
//     thresholds' implied budget;
//   * each seeded run must replay byte-identically (event log and
//     report JSON) on 1 and 8 interval-engine threads.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chaos/injector.hpp"
#include "core/sailfish.hpp"

using namespace sf;

namespace {

// Detection is bounded by DisasterRecovery::Config::fail_after_missed (3
// probes at 0.5 s = 1.0 s) and port isolation by
// DisasterRecovery::kIsolatePortAfter (2 reports = 0.5 s); give both a 2x
// margin before calling it a regression.
constexpr double kDetectBudgetS = 2.0;
constexpr double kRerouteBudgetS = 2.0;

core::SailfishOptions chaos_options() {
  core::SailfishOptions options = core::quickstart_options();
  options.region.recovery.ports_per_device = 4;
  options.region.recovery.cold_standby_pool = 0;
  options.region.recovery.min_live_fraction = 0.0;
  return options;
}

chaos::ChaosInjector::Config injector_config() {
  chaos::ChaosInjector::Config config;
  config.interval_bps = 1e11;
  config.settle_s = 30.0;
  return config;
}

chaos::ChaosSchedule::RandomConfig schedule_shape() {
  chaos::ChaosSchedule::RandomConfig shape;
  shape.horizon_s = 30.0;
  shape.events = 10;
  shape.clusters = 1;
  shape.devices_per_cluster = 4;  // quickstart: 2 primaries + 2 backups
  shape.ports_per_device = 4;
  return shape;
}

struct SeedResult {
  std::uint64_t seed = 0;
  chaos::ChaosReport report;
  std::string json;
  bool replay_identical = false;
  bool within_budget = false;

  bool ok() const {
    return report.converged() && replay_identical && within_budget;
  }
};

SeedResult run_seed(std::uint64_t seed) {
  const chaos::ChaosSchedule schedule =
      chaos::ChaosSchedule::random(seed, schedule_shape());

  core::SailfishSystem one = core::make_system(chaos_options());
  core::SailfishSystem eight = core::make_system(chaos_options());
  one.region->set_interval_threads(1);
  eight.region->set_interval_threads(8);

  chaos::ChaosInjector injector_one(*one.region, one.flows,
                                    injector_config());
  chaos::ChaosInjector injector_eight(*eight.region, eight.flows,
                                      injector_config());

  SeedResult result;
  result.seed = seed;
  result.report = injector_one.run(schedule);
  const chaos::ChaosReport report_eight = injector_eight.run(schedule);

  result.json = result.report.to_json();
  result.replay_identical =
      result.json == report_eight.to_json() &&
      injector_one.log().to_string() == injector_eight.log().to_string();
  result.within_budget =
      result.report.max_time_to_detect <= kDetectBudgetS &&
      result.report.max_time_to_reroute <= kRerouteBudgetS;
  return result;
}

std::string sci(double value) { return sim::format("%.2e", value); }

std::string hex_seed(std::uint64_t seed) {
  return sim::format("0x%llX", static_cast<unsigned long long>(seed));
}

}  // namespace

int main() {
  bench::print_header("Chaos convergence",
                      "seeded fault schedules vs. recovery machinery");

  const std::uint64_t seeds[] = {0x5EED01, 0x5EED02, 0x5EED03};
  std::vector<SeedResult> results;
  bool all_ok = true;

  sim::TablePrinter table({"Seed", "Faults", "Detect mean/max (s)",
                           "Reroute mean/max (s)", "Blackholed", "Peak drop",
                           "Converged", "Replay"});
  for (std::uint64_t seed : seeds) {
    SeedResult result = run_seed(seed);
    const chaos::ChaosReport& report = result.report;

    std::uint64_t blackholed = 0;
    for (const chaos::FaultRecord& fault : report.faults) {
      blackholed += fault.blackholed;
    }
    table.add_row({hex_seed(seed), std::to_string(report.faults.size()),
                   sim::format_double(report.mean_time_to_detect, 2) + " / " +
                       sim::format_double(report.max_time_to_detect, 2),
                   sim::format_double(report.mean_time_to_reroute, 2) + " / " +
                       sim::format_double(report.max_time_to_reroute, 2),
                   std::to_string(blackholed),
                   sci(report.peak_drop_rate),
                   report.converged() ? "yes" : "LEAKED",
                   result.replay_identical ? "identical" : "DIVERGED"});

    if (!result.ok()) {
      all_ok = false;
      if (!report.converged()) {
        for (const std::string& leak : report.leaks) {
          std::fprintf(stderr, "FATAL: seed %llx leaked: %s\n",
                       static_cast<unsigned long long>(seed), leak.c_str());
        }
      }
      if (!result.replay_identical) {
        std::fprintf(stderr,
                     "FATAL: seed %llx diverged between 1 and 8 threads\n",
                     static_cast<unsigned long long>(seed));
      }
      if (!result.within_budget) {
        std::fprintf(stderr,
                     "FATAL: seed %llx convergence regression: detect max "
                     "%.3f s (budget %.1f), reroute max %.3f s (budget %.1f)\n",
                     static_cast<unsigned long long>(seed),
                     report.max_time_to_detect, kDetectBudgetS,
                     report.max_time_to_reroute, kRerouteBudgetS);
      }
    }
    results.push_back(std::move(result));
  }
  table.print();

  // Fig. 19-style drop rate, but with faults in the band: the quiet floor
  // punctuated by the convergence windows of each injected failure.
  const chaos::ChaosReport& first = results.front().report;
  if (!first.drop_rate_series.empty()) {
    sim::TimeSeries drops("drop rate under failure (seed 1)");
    for (const auto& [time, rate] : first.drop_rate_series) {
      drops.record(time, rate);
    }
    std::printf("%s\n", sim::sparkline(drops, 56).c_str());
  }
  bench::print_note(
      "every seeded schedule must converge to a quiescent region with "
      "identical replays at 1 and 8 interval threads; a nonzero exit "
      "means the recovery machinery regressed.");

  std::ofstream json("BENCH_chaos.json");
  json << "{\n  \"bench\": \"chaos_convergence\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    json << "    {\"seed\": " << results[i].seed << ", \"replay_identical\": "
         << (results[i].replay_identical ? "true" : "false")
         << ", \"report\": " << results[i].json << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_chaos.json\n");

  return all_ok ? 0 : 1;
}

// Overload-isolation bench (sf::guard) — one tenant floods the region at
// 4x its interval capacity while every other tenant keeps its normal
// Zipf share. The tenant guard must walk the storm tenant down the
// degradation ladder (full service -> shed new flows -> shed tenant)
// while the victims' drop rate stays under 1% at every sample. Writes
// BENCH_overload.json with the isolation ratio for tracking.
//
// Self-checking — the process exits nonzero if the isolation contract is
// violated, so CI can use it as an overload smoke test:
//   * the run must converge (storm tenant back to full service, no
//     leaked guard state);
//   * the ladder must descend tier by tier to shed-tenant during the
//     flood, and every victim sample must stay under the 1% budget;
//   * the scripted storm must replay byte-identically on 1 and 8
//     interval-engine threads;
//   * a fixed-seed randomized storm schedule must reproduce itself on a
//     fresh region.
//
// With SF_GUARD=off there is nothing to measure: the bench prints a note
// and exits 0 (the byte-identity CI sweep diffs the *other* benches).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "chaos/injector.hpp"
#include "core/sailfish.hpp"
#include "guard/guard.hpp"

using namespace sf;

namespace {

constexpr double kIntervalBps = 1e11;
constexpr double kStormMagnitude = 4.0;  // x region capacity
constexpr double kVictimDropBudget = 0.01;

core::SailfishOptions guarded_options() {
  core::SailfishOptions options = core::quickstart_options();
  options.region.enable_guard = true;
  options.region.guard.escalate_after = 1;
  options.region.guard.deescalate_after = 2;
  options.region.enable_punt_path = true;
  return options;
}

chaos::ChaosInjector::Config injector_config() {
  chaos::ChaosInjector::Config config;
  config.interval_bps = kIntervalBps;
  config.settle_s = 30.0;
  return config;
}

chaos::ChaosSchedule scripted_storm() {
  chaos::ChaosEvent event;
  event.time = 2.0;
  event.kind = chaos::FaultKind::kTenantStorm;
  event.count = 24;                   // Zipf-skewed flood flows
  event.duration = 8.0;               // seconds
  event.error_rate = kStormMagnitude; // x region rate
  chaos::ChaosSchedule schedule;
  schedule.add(event);
  return schedule;
}

std::string sci(double value) { return sim::format("%.2e", value); }

}  // namespace

int main() {
  bench::print_header("Overload isolation",
                      "single-tenant storm at 4x region capacity vs. "
                      "the tenant guard's degradation ladder");
  if (!guard::guard_enabled()) {
    bench::print_note(
        "SF_GUARD=off: the guard is gated out of every region, so there "
        "is no overload machinery to measure. Skipping.");
    return 0;
  }

  // ---- scripted storm on 1 and 8 interval threads -------------------------
  const chaos::ChaosSchedule schedule = scripted_storm();
  core::SailfishSystem one = core::make_system(guarded_options());
  core::SailfishSystem eight = core::make_system(guarded_options());
  one.region->set_interval_threads(1);
  eight.region->set_interval_threads(8);
  chaos::ChaosInjector injector_one(*one.region, one.flows,
                                    injector_config());
  chaos::ChaosInjector injector_eight(*eight.region, eight.flows,
                                      injector_config());
  const chaos::ChaosReport report = injector_one.run(schedule);
  const chaos::ChaosReport report_eight = injector_eight.run(schedule);
  const bool replay_identical =
      report.to_json() == report_eight.to_json() &&
      injector_one.log().to_string() == injector_eight.log().to_string();

  // ---- fixed-seed randomized storm schedule replays itself ----------------
  chaos::ChaosSchedule::RandomConfig shape;
  shape.events = 10;
  shape.horizon_s = 12.0;
  shape.devices_per_cluster = 4;
  shape.ports_per_device = 4;
  shape.tenant_storms = true;
  std::uint64_t storm_seed = 0;
  for (std::uint64_t candidate = 1; candidate <= 64 && storm_seed == 0;
       ++candidate) {
    if (chaos::ChaosSchedule::random(candidate, shape)
            .to_string()
            .find("tenant-storm") != std::string::npos) {
      storm_seed = candidate;
    }
  }
  bool seeded_replay_identical = storm_seed != 0;
  bool seeded_converged = storm_seed != 0;
  if (storm_seed != 0) {
    std::string first;
    for (int round = 0; round < 2; ++round) {
      core::SailfishSystem system = core::make_system(guarded_options());
      chaos::ChaosInjector injector(*system.region, system.flows,
                                    injector_config());
      const chaos::ChaosReport seeded =
          injector.run(chaos::ChaosSchedule::random(storm_seed, shape));
      seeded_converged = seeded_converged && seeded.converged();
      const std::string rendered =
          seeded.to_json() + injector.log().to_string();
      if (round == 0) {
        first = rendered;
      } else {
        seeded_replay_identical = rendered == first;
      }
    }
  }

  // ---- the isolation numbers ----------------------------------------------
  sim::TablePrinter table({"t (s)", "Tier", "Storm offered (pps)",
                           "Storm shed (pps)", "Victim drop"});
  int max_tier = 0;
  bool ladder_monotonic = true;
  double peak_shed_fraction = 0;
  for (std::size_t i = 0; i < report.storm_samples.size(); ++i) {
    const auto& sample = report.storm_samples[i];
    table.add_row({sim::format_double(sample.time, 1),
                   guard::name(static_cast<guard::Tier>(sample.tier)),
                   sci(sample.storm_offered_pps), sci(sample.storm_shed_pps),
                   sci(sample.victim_drop_rate)});
    if (i > 0 && sample.tier < report.storm_samples[i - 1].tier) {
      ladder_monotonic = false;
    }
    max_tier = std::max(max_tier, sample.tier);
    if (sample.storm_offered_pps > 0) {
      peak_shed_fraction =
          std::max(peak_shed_fraction,
                   sample.storm_shed_pps / sample.storm_offered_pps);
    }
  }
  table.print();

  // Isolation ratio: how much harder the storm tenant is hit than the
  // victims — shed fraction over victim drop rate (floored to keep the
  // ratio finite when the victims lose nothing at all).
  const double isolation_ratio =
      peak_shed_fraction / std::max(report.peak_victim_drop_rate, 1e-9);
  std::printf("storm magnitude            : %.1fx region capacity\n",
              kStormMagnitude);
  std::printf("deepest ladder tier        : %s\n",
              guard::name(static_cast<guard::Tier>(max_tier)));
  std::printf("peak storm shed fraction   : %s\n",
              sci(peak_shed_fraction).c_str());
  std::printf("peak victim drop rate      : %s (budget %s)\n",
              sci(report.peak_victim_drop_rate).c_str(),
              sci(kVictimDropBudget).c_str());
  std::printf("isolation ratio            : %s\n",
              sci(isolation_ratio).c_str());
  std::printf("thread replay              : %s\n",
              replay_identical ? "identical" : "DIVERGED");
  std::printf("seeded replay (seed %llu)    : %s\n",
              static_cast<unsigned long long>(storm_seed),
              seeded_replay_identical ? "identical" : "DIVERGED");

  bench::print_note(
      "the storm tenant must be walked tier by tier to shed-tenant while "
      "every other tenant's drop rate stays under 1%; a nonzero exit "
      "means tenant isolation regressed.");

  const bool ok = report.converged() && !report.storm_samples.empty() &&
                  max_tier == 2 && ladder_monotonic &&
                  report.peak_victim_drop_rate < kVictimDropBudget &&
                  replay_identical && seeded_converged &&
                  seeded_replay_identical;
  if (!report.converged()) {
    for (const std::string& leak : report.leaks) {
      std::fprintf(stderr, "FATAL: leaked: %s\n", leak.c_str());
    }
  }
  if (max_tier != 2 || !ladder_monotonic) {
    std::fprintf(stderr,
                 "FATAL: ladder did not descend tier by tier to "
                 "shed-tenant (max tier %d)\n",
                 max_tier);
  }
  if (report.peak_victim_drop_rate >= kVictimDropBudget) {
    std::fprintf(stderr, "FATAL: victim drop rate %.3e over budget %.3e\n",
                 report.peak_victim_drop_rate, kVictimDropBudget);
  }
  if (!replay_identical || !seeded_replay_identical) {
    std::fprintf(stderr, "FATAL: storm replay diverged\n");
  }

  std::ofstream json("BENCH_overload.json");
  json << "{\n  \"bench\": \"overload_isolation\",\n"
       << "  \"storm_magnitude\": " << kStormMagnitude << ",\n"
       << "  \"interval_bps\": " << sci(kIntervalBps) << ",\n"
       << "  \"deepest_tier\": " << max_tier << ",\n"
       << "  \"peak_storm_shed_fraction\": " << sci(peak_shed_fraction)
       << ",\n"
       << "  \"peak_victim_drop_rate\": " << sci(report.peak_victim_drop_rate)
       << ",\n"
       << "  \"isolation_ratio\": " << sci(isolation_ratio) << ",\n"
       << "  \"replay_identical\": " << (replay_identical ? "true" : "false")
       << ",\n"
       << "  \"seeded_replay_identical\": "
       << (seeded_replay_identical ? "true" : "false") << ",\n"
       << "  \"storm_seed\": " << storm_seed << ",\n"
       << "  \"report\": " << report.to_json() << "\n}\n";
  std::printf("wrote BENCH_overload.json\n");

  return ok ? 0 : 1;
}

// kTenantStorm end to end: one tenant floods a multiple of the region
// rate, the guard walks it down the degradation ladder tier by tier, the
// other tenants' drop rate stays bounded the whole time, and the tenant
// recovers to full service after the flood — all replayable byte for byte
// from the schedule at any interval-engine thread count.

#include "chaos/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/sailfish.hpp"
#include "golden.hpp"
#include "guard/guard.hpp"

namespace sf::chaos {
namespace {

core::SailfishOptions storm_options() {
  core::SailfishOptions options = core::quickstart_options();
  options.region.enable_guard = true;
  options.region.guard.escalate_after = 1;
  options.region.guard.deescalate_after = 2;
  options.region.enable_punt_path = true;
  return options;
}

ChaosInjector::Config storm_injector_config() {
  ChaosInjector::Config config;
  config.settle_s = 30.0;
  config.interval_bps = 1e11;
  return config;
}

ChaosEvent storm_event(double time, double magnitude, double duration) {
  ChaosEvent event;
  event.time = time;
  event.kind = FaultKind::kTenantStorm;
  event.count = 16;           // Zipf-skewed flood flows
  event.duration = duration;  // seconds
  event.error_rate = magnitude;  // x region rate
  return event;
}

TEST(ChaosTenantStorm, StormTenantDegradesTierByTierAndVictimsStayBounded) {
  core::SailfishSystem system = core::make_system(storm_options());
  ChaosInjector injector(*system.region, system.flows,
                         storm_injector_config());

  ChaosSchedule schedule;
  schedule.add(storm_event(2.0, /*magnitude=*/4.0, /*duration=*/8.0));
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  ASSERT_FALSE(report.storm_samples.empty());

  // The ladder descends monotonically while the flood lasts, and the
  // storm reaches the shed-tenant tier.
  int max_tier = 0;
  for (std::size_t i = 0; i < report.storm_samples.size(); ++i) {
    const auto& sample = report.storm_samples[i];
    EXPECT_GT(sample.storm_offered_pps, 0.0);
    if (i > 0) {
      EXPECT_GE(sample.tier, report.storm_samples[i - 1].tier);
    }
    max_tier = std::max(max_tier, sample.tier);
  }
  EXPECT_EQ(max_tier, 2);
  // Once degraded past full service, the guard sheds storm traffic.
  EXPECT_GT(report.storm_samples.back().storm_shed_pps, 0.0);

  // Isolation: the non-storm population's drop rate stays under 1% at
  // every sample, even with the flood at 4x the region's rate.
  EXPECT_LT(report.peak_victim_drop_rate, 0.01) << report.to_json();

  // The fault record captured the full lifecycle: armed at the event,
  // rerouted when the tenant first degraded, recovered after the flood
  // when the tenant walked back to full service.
  ASSERT_EQ(report.faults.size(), 1u);
  const FaultRecord& fault = report.faults[0];
  EXPECT_DOUBLE_EQ(fault.detected_at, 2.0);
  EXPECT_GE(fault.rerouted_at, 2.0);
  EXPECT_GT(fault.recovered_at, 10.0);  // strictly after the flood end
  const net::Vni storm_vni = report.storm_samples.front().vni;
  EXPECT_EQ(system.region->tenant_guard()->tier_of(storm_vni),
            guard::Tier::kFull);
  EXPECT_EQ(injector.log().events("tenant-storm").size(), 1u);
}

TEST(ChaosGolden, ScriptedTenantStormReportAndLog) {
  core::SailfishSystem system = core::make_system(storm_options());
  ChaosInjector injector(*system.region, system.flows,
                         storm_injector_config());
  ChaosSchedule schedule;
  schedule.add(storm_event(2.0, /*magnitude=*/4.0, /*duration=*/8.0));
  const ChaosReport report = injector.run(schedule);
  expect_golden("chaos_scripted_tenant_storm.txt",
                report.to_json() + injector.log().to_string());
}

TEST(ChaosTenantStorm, RegionWithoutGuardSkipsTheStormCleanly) {
  core::SailfishOptions options = core::quickstart_options();  // no guard
  core::SailfishSystem system = core::make_system(options);
  ChaosInjector injector(*system.region, system.flows,
                         storm_injector_config());

  ChaosSchedule schedule;
  schedule.add(storm_event(1.0, 4.0, 4.0));
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  EXPECT_TRUE(report.storm_samples.empty());
  EXPECT_DOUBLE_EQ(report.peak_victim_drop_rate, 0.0);
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_DOUBLE_EQ(report.faults[0].recovered_at,
                   report.faults[0].detected_at);
  // The JSON carries no storm section for storm-less runs.
  EXPECT_EQ(report.to_json().find("tenant_storms"), std::string::npos);
}

TEST(ChaosTenantStorm, ScriptedStormByteIdenticalAcrossThreadCounts) {
  ChaosSchedule schedule;
  schedule.add(storm_event(2.0, 3.0, 6.0));

  core::SailfishSystem one = core::make_system(storm_options());
  core::SailfishSystem eight = core::make_system(storm_options());
  one.region->set_interval_threads(1);
  eight.region->set_interval_threads(8);

  ChaosInjector injector_one(*one.region, one.flows, storm_injector_config());
  ChaosInjector injector_eight(*eight.region, eight.flows,
                               storm_injector_config());
  const ChaosReport report_one = injector_one.run(schedule);
  const ChaosReport report_eight = injector_eight.run(schedule);

  EXPECT_EQ(report_one.to_json(), report_eight.to_json());
  EXPECT_EQ(injector_one.log().to_string(), injector_eight.log().to_string());
  EXPECT_FALSE(report_one.storm_samples.empty());
}

TEST(ChaosTenantStorm, SeededStormScheduleReplaysItself) {
  // Find a seed whose random schedule actually draws a tenant storm
  // (opt-in face), then replay it twice on fresh regions.
  ChaosSchedule::RandomConfig shape;
  shape.events = 10;
  shape.horizon_s = 12.0;
  shape.devices_per_cluster = 4;
  shape.ports_per_device = 4;
  shape.tenant_storms = true;

  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate <= 64; ++candidate) {
    const ChaosSchedule probe = ChaosSchedule::random(candidate, shape);
    if (probe.to_string().find("tenant-storm") != std::string::npos) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed in 1..64 drew a tenant storm";

  std::string first;
  for (int round = 0; round < 2; ++round) {
    core::SailfishSystem system = core::make_system(storm_options());
    ChaosInjector injector(*system.region, system.flows,
                           storm_injector_config());
    const ChaosReport report =
        injector.run(ChaosSchedule::random(seed, shape));
    EXPECT_TRUE(report.converged()) << report.to_json();
    const std::string rendered = report.to_json() + injector.log().to_string();
    if (round == 0) {
      first = rendered;
    } else {
      EXPECT_EQ(rendered, first);
    }
  }
}

TEST(ChaosTenantStorm, RandomSchedulesGateStormsBehindOptIn) {
  ChaosSchedule::RandomConfig off;
  off.events = 80;
  // Bind each schedule first: a range-for over a temporary's events()
  // would iterate a destroyed vector.
  const ChaosSchedule without = ChaosSchedule::random(9, off);
  for (const ChaosEvent& event : without.events()) {
    EXPECT_NE(event.kind, FaultKind::kTenantStorm);
  }

  ChaosSchedule::RandomConfig on = off;
  on.tenant_storms = true;
  std::size_t storms = 0;
  const ChaosSchedule with = ChaosSchedule::random(9, on);
  for (const ChaosEvent& event : with.events()) {
    if (event.kind != FaultKind::kTenantStorm) continue;
    ++storms;
    EXPECT_GE(event.count, 16u);
    EXPECT_LT(event.count, 32u);
    EXPECT_GE(event.duration, 3.0);
    EXPECT_LT(event.duration, 8.0);
    EXPECT_GE(event.error_rate, 2.0);
    EXPECT_LT(event.error_rate, 6.0);
  }
  EXPECT_GT(storms, 0u);
}

}  // namespace
}  // namespace sf::chaos

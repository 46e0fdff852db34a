// kDpuFailure — a DPU node goes dark mid-run: its placed elephants must
// fail over to x86 immediately, the run must converge with the node
// restored and serving again (re-promotion), and the whole report must
// replay byte-identically across interval-engine thread counts.

#include <gtest/gtest.h>

#include <string>

#include "chaos/injector.hpp"
#include "core/sailfish.hpp"
#include "golden.hpp"

namespace sf::chaos {
namespace {

core::SailfishOptions tiered_options(bool with_dpu = true) {
  return core::overflow_options(4.0, with_dpu);
}

ChaosInjector::Config injector_config() {
  ChaosInjector::Config config;
  config.interval_bps = 1e11;
  config.settle_s = 30.0;
  return config;
}

ChaosSchedule scripted_dpu_failure() {
  ChaosEvent event;
  event.time = 4.0;  // after a couple of interval samples warm the placer
  event.kind = FaultKind::kDpuFailure;
  event.device = 0;
  event.duration = 4.0;
  ChaosSchedule schedule;
  schedule.add(event);
  return schedule;
}

TEST(ChaosDpuFailure, ElephantsFailOverAndRepromoteOnRecovery) {
  core::SailfishSystem system = core::make_system(tiered_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());
  const ChaosReport report = injector.run(scripted_dpu_failure());

  ASSERT_EQ(report.events_applied, 1u);
  EXPECT_TRUE(report.converged()) << report.to_json();
  ASSERT_EQ(report.faults.size(), 1u);
  const FaultRecord& fault = report.faults[0];
  EXPECT_DOUBLE_EQ(fault.detected_at, 4.0);
  EXPECT_DOUBLE_EQ(fault.rerouted_at, 4.0);
  // Recovery needs the restore (t=8) plus a post-restore interval sample
  // showing the tier serving again.
  EXPECT_GE(fault.recovered_at, 8.0);

  // The sample series shows the dip and the re-promotion: the tier keeps
  // serving on the surviving node during the fault, and is back above its
  // single-node share after recovery.
  ASSERT_FALSE(report.dpu_samples.empty());
  double dpu_before = -1;
  double dpu_during = -1;
  double dpu_after = -1;
  for (const auto& sample : report.dpu_samples) {
    if (sample.time < 4.0) {
      dpu_before = sample.dpu_pps;
    } else if (sample.time < 8.0) {
      dpu_during = sample.dpu_pps;
    } else {
      if (dpu_after < 0) dpu_after = sample.dpu_pps;
    }
  }
  ASSERT_GE(dpu_before, 0.0);
  EXPECT_GT(dpu_before, 0.0);
  EXPECT_LT(dpu_during, dpu_before);  // node 0's placements are gone
  EXPECT_GT(dpu_after, 0.0);          // re-promoted after restore

  // Neither node may be left failed, and the JSON carries the conditional
  // dpu_samples section.
  for (std::size_t n = 0; n < system.region->dpu_node_count(); ++n) {
    EXPECT_FALSE(system.region->dpu_node(n).failed());
  }
  EXPECT_NE(report.to_json().find("\"dpu_samples\""), std::string::npos);
}

TEST(ChaosDpuFailure, ReplayIsByteIdenticalAcrossThreadCounts) {
  core::SailfishSystem one = core::make_system(tiered_options());
  core::SailfishSystem eight = core::make_system(tiered_options());
  one.region->set_interval_threads(1);
  eight.region->set_interval_threads(8);
  ChaosInjector injector_one(*one.region, one.flows, injector_config());
  ChaosInjector injector_eight(*eight.region, eight.flows,
                               injector_config());
  const ChaosReport a = injector_one.run(scripted_dpu_failure());
  const ChaosReport b = injector_eight.run(scripted_dpu_failure());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(injector_one.log().to_string(),
            injector_eight.log().to_string());
}

// Two overlapping failures on node 0 (t=4 for 4 s, then t=6 for 6 s): the
// node stays dark until the later one ends at t=12, not the earlier.
TEST(ChaosDpuFailure, OverlappingFailuresHoldTheNodeDarkUntilTheLatestEnd) {
  core::SailfishSystem system = core::make_system(tiered_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());
  ChaosSchedule schedule = scripted_dpu_failure();
  schedule.add(ChaosEvent{6.0, FaultKind::kDpuFailure, 0, 0, 0, 0, 6.0, 0});
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  const auto restores = injector.log().events("dpu-failure");
  ASSERT_EQ(restores.back().message, "node 0 restored");
  EXPECT_DOUBLE_EQ(restores.back().time, 12.0);
  EXPECT_EQ(restores.size(), 3u);  // two injections, one restore
  for (const FaultRecord& fault : report.faults) {
    EXPECT_GT(fault.recovered_at, 12.0);
  }
}

TEST(ChaosGolden, ScriptedDpuFailureReportAndLog) {
  core::SailfishSystem system = core::make_system(tiered_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());
  const ChaosReport report = injector.run(scripted_dpu_failure());
  expect_golden("chaos_scripted_dpu_failure.txt",
                report.to_json() + injector.log().to_string());
}

TEST(ChaosDpuFailure, RegionWithoutDpuTierSkipsGracefully) {
  core::SailfishSystem system = core::make_system(tiered_options(false));
  ChaosInjector injector(*system.region, system.flows, injector_config());
  const ChaosReport report = injector.run(scripted_dpu_failure());
  EXPECT_TRUE(report.converged()) << report.to_json();
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_DOUBLE_EQ(report.faults[0].recovered_at, 4.0);  // retired at inject
  EXPECT_TRUE(report.dpu_samples.empty());
  EXPECT_EQ(report.to_json().find("\"dpu_samples\""), std::string::npos);
}

TEST(ChaosDpuFailure, RandomSchedulesDrawDpuFaultsOnlyWhenEnabled) {
  ChaosSchedule::RandomConfig shape;
  shape.events = 32;
  shape.horizon_s = 20.0;
  shape.dpu_faults = true;
  bool drew_dpu_fault = false;
  for (std::uint64_t seed = 1; seed <= 16 && !drew_dpu_fault; ++seed) {
    drew_dpu_fault = ChaosSchedule::random(seed, shape)
                         .to_string()
                         .find("dpu-failure") != std::string::npos;
  }
  EXPECT_TRUE(drew_dpu_fault);

  // And the face stays out of schedules that don't opt in.
  shape.dpu_faults = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(ChaosSchedule::random(seed, shape)
                  .to_string()
                  .find("dpu-failure"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sf::chaos

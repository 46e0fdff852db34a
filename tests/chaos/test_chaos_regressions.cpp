// The three failure-recovery regressions this harness was built to catch,
// each driven end to end through sf::chaos against a full region, plus
// the injector's own determinism contract (seeded schedules replay
// byte-identically at any interval-engine thread count).

#include "chaos/injector.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/sailfish.hpp"
#include "golden.hpp"

namespace sf::chaos {
namespace {

core::SailfishOptions chaos_options() {
  core::SailfishOptions options = core::quickstart_options();
  options.region.recovery.ports_per_device = 4;
  options.region.recovery.cold_standby_pool = 0;
  options.region.recovery.min_live_fraction = 0.0;
  return options;
}

ChaosInjector::Config injector_config() {
  ChaosInjector::Config config;
  config.settle_s = 20.0;
  return config;
}

ChaosSchedule::RandomConfig random_shape(std::size_t events,
                                         double horizon_s) {
  ChaosSchedule::RandomConfig random;
  random.events = events;
  random.horizon_s = horizon_s;
  random.devices_per_cluster = 4;  // primaries + backups in quickstart
  random.ports_per_device = 4;
  return random;
}

// The interval-sampled config the 0x5eed schedule replays under.
ChaosInjector::Config sampled_config() {
  ChaosInjector::Config config = injector_config();
  config.interval_bps = 1e11;
  return config;
}

std::size_t count_events_containing(const cluster::DisasterRecovery& recovery,
                                    const std::string& needle) {
  std::size_t count = 0;
  for (const auto& event : recovery.events()) {
    if (event.description.find(needle) != std::string::npos) ++count;
  }
  return count;
}

// Satellite 1: recovery-side port hysteresis. Two error bursts with a
// single clean probe between them must produce exactly ONE isolate/
// recover cycle. Before the fix a lone clean observation re-admitted the
// port, so the second burst re-isolated it — the port oscillated in and
// out of the ECMP spread.
TEST(ChaosRegressions, FlappingPortIsolatesExactlyOnce) {
  core::SailfishSystem system = core::make_system(chaos_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());

  ChaosSchedule schedule;
  schedule.add(ChaosEvent{0.0, FaultKind::kPortErrorBurst, 0, 0, 3, 3, 0,
                          1e-3});
  schedule.add(ChaosEvent{2.0, FaultKind::kPortErrorBurst, 0, 0, 3, 3, 0,
                          1e-3});
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  const auto& recovery = system.region->disaster_recovery();
  EXPECT_EQ(count_events_containing(recovery, "port 3 isolated"), 1u);
  EXPECT_EQ(count_events_containing(recovery, "port 3 recovered"), 1u);
  EXPECT_GE(report.faults[0].time_to_detect(), 0.0);
  EXPECT_GT(report.faults[0].recovered_at, 0.0);
  EXPECT_TRUE(recovery.quiescent());
}

// Satellite 2: a cold standby replacing a dead device must not inherit
// the dead hardware's isolated-port ledger. Before the fix the stale
// count kept shaving the fresh device's reported capacity forever and
// quiescent() never returned true — the run ends with a leak.
TEST(ChaosRegressions, ColdStandbyReplacementLeavesNoStaleState) {
  core::SailfishOptions options = chaos_options();
  options.region.recovery.cold_standby_pool = 1;
  options.region.recovery.min_live_fraction = 0.9;
  core::SailfishSystem system = core::make_system(options);
  ChaosInjector injector(*system.region, system.flows, injector_config());

  ChaosSchedule schedule;
  // Keep port 2 erroring right up to the crash so its isolation is still
  // on the books when the standby takes the slot.
  schedule.add(ChaosEvent{0.0, FaultKind::kPortErrorBurst, 0, 0, 2, 6, 0,
                          1e-3});
  schedule.add(ChaosEvent{2.0, FaultKind::kDeviceCrash, 0, 0, 0, 0, 10.0,
                          1e-3});
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  EXPECT_TRUE(report.faults[1].replaced);
  const auto& recovery = system.region->disaster_recovery();
  EXPECT_EQ(recovery.cold_standby_available(), 0u);
  EXPECT_EQ(recovery.isolated_port_count(0, 0), 0u);
  EXPECT_DOUBLE_EQ(recovery.device_capacity_fraction(0, 0), 1.0);
  EXPECT_TRUE(recovery.quiescent());
}

// Satellite 3: when every port of a device is lost, DisasterRecovery
// escalates to a node-level failure on its own. The HealthMonitor must
// adopt that state, or the clean heartbeats that follow are ignored and
// the device never rejoins the ECMP set — before the fix this run ended
// with the device still out and the report listing leaks.
TEST(ChaosRegressions, PortEscalationRecoversViaHeartbeats) {
  core::SailfishSystem system = core::make_system(chaos_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());

  ChaosSchedule schedule;
  // Four of four ports die together: a cut trunk, not flaky optics.
  schedule.add(ChaosEvent{0.0, FaultKind::kLinkLoss, 0, 0, 0, 4, 0, 1e-3});
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  EXPECT_TRUE(report.faults[0].escalated);
  EXPECT_GE(report.faults[0].time_to_detect(), 0.0);
  EXPECT_GE(report.faults[0].time_to_reroute(), 0.0);
  EXPECT_GT(report.faults[0].recovered_at, 0.0);
  const auto& cluster = system.region->controller().cluster(0);
  for (std::size_t d = 0; d < cluster.device_count(); ++d) {
    EXPECT_EQ(cluster.device_health(d), cluster::DeviceHealth::kHealthy);
  }
  EXPECT_TRUE(system.region->disaster_recovery().quiescent());
}

// Tentpole: a crashed device blackholes traffic until detection fails it
// out of the ECMP set; the report accounts for those packets and the
// convergence latencies line up with the health thresholds.
TEST(ChaosRegressions, CrashConvergenceMetricsAreMeasured) {
  core::SailfishSystem system = core::make_system(chaos_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());

  ChaosSchedule schedule;
  schedule.add(ChaosEvent{1.0, FaultKind::kDeviceCrash, 0, 0, 0, 0, 6.0,
                          1e-3});
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  const FaultRecord& fault = report.faults[0];
  // fail_after_missed=3 probes at 0.5s: detection lands at +1.0s.
  EXPECT_DOUBLE_EQ(fault.time_to_detect(), 1.0);
  EXPECT_DOUBLE_EQ(fault.time_to_reroute(), 1.0);
  EXPECT_GT(fault.recovered_at, fault.event.time + fault.event.duration);
  // Probes kept flowing into the dead device until it was failed out.
  EXPECT_GT(fault.blackholed, 0u);
  EXPECT_GT(report.probes_sent, 0u);
  EXPECT_GE(report.probe_drops, fault.blackholed);
}

// Control plane: an update-channel outage plus a provisioning storm must
// drain completely through the retry queue once the channel returns —
// nothing silently lost, devices consistent with desired state.
TEST(ChaosRegressions, ChannelOutageAndStormDrain) {
  core::SailfishSystem system = core::make_system(chaos_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());

  ChaosSchedule schedule;
  schedule.add(ChaosEvent{0.0, FaultKind::kChannelOutage, 0, 0, 0, 0, 3.0,
                          1e-3});
  schedule.add(ChaosEvent{1.0, FaultKind::kUpdateStorm, 0, 0, 0, 6, 0,
                          1e-3});
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  const auto& controller = system.region->controller();
  EXPECT_EQ(controller.deferred_op_count(), 0u);
  // 6 storm VPCs x (1 route + 2 mappings) all landed eventually.
  EXPECT_GE(controller.retry_stats().applied, 18u);
  EXPECT_EQ(controller.retry_stats().gave_up, 0u);
}

// Mid-upgrade failure: the roll aborts, the fleet keeps serving on the
// old version, and nothing leaks.
TEST(ChaosRegressions, MidUpgradeFailureAbortsCleanly) {
  core::SailfishSystem system = core::make_system(chaos_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());

  ChaosSchedule schedule;
  schedule.add(ChaosEvent{0.5, FaultKind::kMidUpgradeFailure, 0, 1, 0, 0, 0,
                          1e-3});
  const ChaosReport report = injector.run(schedule);

  EXPECT_TRUE(report.converged()) << report.to_json();
  EXPECT_EQ(injector.log().count("upgrade"), 1u);
}

// Determinism contract: a seeded schedule replays byte-identically —
// same event log, same convergence-metrics JSON — whether the interval
// engine runs on 1 thread or 8.
TEST(ChaosDeterminism, SeededRunByteIdenticalAcrossThreadCounts) {
  const ChaosSchedule schedule =
      ChaosSchedule::random(0x5eedULL, random_shape(8, 20.0));
  const ChaosInjector::Config config = sampled_config();

  core::SailfishSystem one = core::make_system(chaos_options());
  core::SailfishSystem eight = core::make_system(chaos_options());
  one.region->set_interval_threads(1);
  eight.region->set_interval_threads(8);

  ChaosInjector injector_one(*one.region, one.flows, config);
  ChaosInjector injector_eight(*eight.region, eight.flows, config);
  const ChaosReport report_one = injector_one.run(schedule);
  const ChaosReport report_eight = injector_eight.run(schedule);

  EXPECT_EQ(injector_one.log().to_string(), injector_eight.log().to_string());
  EXPECT_EQ(injector_one.log().fingerprint(),
            injector_eight.log().fingerprint());
  EXPECT_EQ(report_one.to_json(), report_eight.to_json());
  EXPECT_FALSE(report_one.drop_rate_series.empty());
}

// And the same (seed, region) pair re-run from scratch reproduces itself.
TEST(ChaosDeterminism, SameSeedSameRun) {
  std::string first;
  for (int round = 0; round < 2; ++round) {
    core::SailfishSystem system = core::make_system(chaos_options());
    ChaosInjector injector(*system.region, system.flows, injector_config());
    const ChaosReport report =
        injector.run(ChaosSchedule::random(0xabcdULL, random_shape(6, 15.0)));
    const std::string rendered =
        report.to_json() + injector.log().to_string();
    if (round == 0) {
      first = rendered;
    } else {
      EXPECT_EQ(rendered, first);
    }
  }
}

// Goldens: both seeded schedules above, pinned byte for byte (report JSON
// followed by the replay log).
TEST(ChaosGolden, Seed5eedReportAndLog) {
  core::SailfishSystem system = core::make_system(chaos_options());
  ChaosInjector injector(*system.region, system.flows, sampled_config());
  const ChaosReport report =
      injector.run(ChaosSchedule::random(0x5eedULL, random_shape(8, 20.0)));
  expect_golden("chaos_seed_5eed.txt",
                report.to_json() + injector.log().to_string());
}

TEST(ChaosGolden, SeedAbcdReportAndLog) {
  core::SailfishSystem system = core::make_system(chaos_options());
  ChaosInjector injector(*system.region, system.flows, injector_config());
  const ChaosReport report =
      injector.run(ChaosSchedule::random(0xabcdULL, random_shape(6, 15.0)));
  expect_golden("chaos_seed_abcd.txt",
                report.to_json() + injector.log().to_string());
}

}  // namespace
}  // namespace sf::chaos

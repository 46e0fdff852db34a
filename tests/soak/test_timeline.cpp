// ChaosTimeline — the interval-granular composed chaos scheduler
// (DESIGN.md §17): schedules are a pure function of (seed, config), a
// quickstart region steps through a full drawn day and comes out of the
// settle window leak-free, and the per-kind event census matches the
// schedule it was drawn from.

#include "soak/timeline.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/sailfish.hpp"
#include "golden.hpp"
#include "sim/table_printer.hpp"

namespace sf::soak {
namespace {

ChaosTimeline::Config day_config(const core::SailfishSystem& system,
                                 std::uint64_t seed) {
  ChaosTimeline::Config config;
  config.seed = seed;
  config.horizon_s = 86400.0;  // one simulated day
  config.events_per_day = 8.0;
  for (std::size_t i = 0;
       i < system.topology.vpcs.size() && config.tenant_vnis.size() < 8; ++i) {
    config.tenant_vnis.push_back(system.topology.vpcs[i].vni);
  }
  for (const workload::VpcRecord& vpc : system.topology.vpcs) {
    if (config.migratable_vms.size() >= 16) break;
    if (vpc.vms.empty()) continue;
    config.migratable_vms.push_back(
        tables::VmNcKey{vpc.vni, vpc.vms.front().ip});
  }
  return config;
}

TEST(ChaosTimeline, SchedulesAreAPureFunctionOfSeedAndConfig) {
  core::SailfishSystem a = core::make_system(core::quickstart_options());
  core::SailfishSystem b = core::make_system(core::quickstart_options());
  ChaosTimeline first(*a.region, day_config(a, 42));
  ChaosTimeline second(*b.region, day_config(b, 42));
  ASSERT_FALSE(first.schedule().empty());
  EXPECT_EQ(first.schedule().to_string(), second.schedule().to_string());

  // A different seed must draw a different schedule.
  core::SailfishSystem c = core::make_system(core::quickstart_options());
  ChaosTimeline third(*c.region, day_config(c, 43));
  EXPECT_NE(first.schedule().to_string(), third.schedule().to_string());
}

TEST(ChaosTimeline, EventCensusMatchesTheDrawnSchedule) {
  core::SailfishSystem system = core::make_system(core::quickstart_options());
  ChaosTimeline timeline(*system.region, day_config(system, 7));
  std::size_t counted = 0;
  for (const auto& [kind, count] : timeline.event_counts()) {
    EXPECT_GT(count, 0u) << kind;
    counted += count;
  }
  EXPECT_EQ(counted, timeline.schedule().size());
  // A day at 8 events/day composes more than one fault kind.
  EXPECT_GE(timeline.event_counts().size(), 2u);
}

TEST(ChaosTimeline, FullDayStepsFireEverythingAndSettleLeakFree) {
  core::SailfishSystem system = core::make_system(core::quickstart_options());
  const ChaosTimeline::Config config = day_config(system, 11);
  ChaosTimeline timeline(*system.region, config);

  const std::size_t intervals =
      static_cast<std::size_t>(config.horizon_s / config.interval_s);
  std::size_t fired = 0;
  std::size_t stormed_intervals = 0;
  for (std::size_t i = 0; i < intervals; ++i) {
    const ChaosTimeline::StepResult step =
        timeline.step(static_cast<double>(i) * config.interval_s);
    fired += step.events_fired;
    if (!step.active_storms.empty()) {
      ++stormed_intervals;
      // Storm specs come out ascending-VNI with sane multipliers.
      for (std::size_t s = 1; s < step.active_storms.size(); ++s) {
        EXPECT_LT(step.active_storms[s - 1].vni, step.active_storms[s].vni);
      }
      for (const StormSpec& storm : step.active_storms) {
        EXPECT_GE(storm.multiplier, ChaosTimeline::kStormMultiplierMin);
        EXPECT_LE(storm.multiplier, ChaosTimeline::kStormMultiplierMax);
      }
    }
  }
  EXPECT_EQ(fired, timeline.schedule().size());
  EXPECT_EQ(timeline.events_fired(), timeline.schedule().size());

  // Settle past the horizon so detection/recovery hysteresis unwinds,
  // then demand a leak-free final audit.
  double t = static_cast<double>(intervals) * config.interval_s;
  for (int settle = 0; settle < 12; ++settle, t += config.interval_s) {
    timeline.step(t);
  }
  const std::vector<std::string> leaks = timeline.final_audit(t);
  EXPECT_TRUE(leaks.empty()) << leaks.front();
  // The drawn storms were actually delivered to some interval.
  if (timeline.event_counts().count("tenant-storm") > 0) {
    EXPECT_GT(stormed_intervals, 0u);
  }
}

// Golden: the seed-11 day above as a byte-stable trace — the drawn
// schedule, one line per step (horizon plus settle), then the final audit.
TEST(SoakGolden, OneDayTimelineTrace) {
  core::SailfishSystem system = core::make_system(core::quickstart_options());
  const ChaosTimeline::Config config = day_config(system, 11);
  ChaosTimeline timeline(*system.region, config);

  std::string trace = timeline.schedule().to_string();
  const std::size_t steps =
      static_cast<std::size_t>(config.horizon_s / config.interval_s) + 12;
  double t = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    t = static_cast<double>(i) * config.interval_s;
    const ChaosTimeline::StepResult step = timeline.step(t);
    trace += sim::format("t=%.0f fired=%zu device=%d control=%d deferred=%zu",
                         t, step.events_fired, step.device_faults_active,
                         step.control_faults_active, step.deferred_ops);
    for (const StormSpec& storm : step.active_storms) {
      trace += sim::format(" storm=%u:%.6f", static_cast<unsigned>(storm.vni),
                           storm.multiplier);
    }
    trace += "\n";
  }
  for (const std::string& leak : timeline.final_audit(t)) {
    trace += "leak: " + leak + "\n";
  }
  expect_golden("soak_timeline_day_seed11.txt", trace);
}

}  // namespace
}  // namespace sf::soak

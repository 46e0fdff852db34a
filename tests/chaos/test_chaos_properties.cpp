// Seeded randomized check over every fault face at once: each schedule
// draws device, port, channel and upgrade faults together with all four
// opt-in kinds (tenant storms, DPU failures, churn storms, controller
// brownouts) against a region that has the machinery each face needs — a
// tenant guard, a DPU tier, a breaker-equipped controller. Every run must
// converge with every fault recovered, and replay byte for byte at any
// interval-engine thread count.

#include "chaos/injector.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/sailfish.hpp"

namespace sf::chaos {
namespace {

core::SailfishOptions all_face_options() {
  core::SailfishOptions options = core::overflow_options(4.0, true);
  options.region.enable_guard = true;
  options.region.guard.escalate_after = 1;
  options.region.guard.deescalate_after = 2;
  options.region.controller.breaker.trip_after = 2;
  options.region.controller.breaker.open_cooldown_s = 2.0;
  options.region.recovery.ports_per_device = 4;
  options.region.recovery.cold_standby_pool = 0;
  options.region.recovery.min_live_fraction = 0.0;
  return options;
}

ChaosSchedule::RandomConfig all_face_shape() {
  ChaosSchedule::RandomConfig shape;
  shape.horizon_s = 30.0;
  shape.events = 10;
  shape.ports_per_device = 4;
  shape.tenant_storms = true;
  shape.dpu_faults = true;
  shape.churn_storms = true;
  shape.controller_brownouts = true;
  return shape;
}

// No detect/reroute budgets: storm and brownout faults take seconds to
// detect by design. Convergence and replay identity are the properties.
TEST(ChaosProperties, RandomAllFaceSchedulesConverge) {
  ChaosInjector::Config config;
  config.interval_bps = 1e11;
  config.settle_s = 30.0;
  std::set<FaultKind> drawn;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChaosSchedule schedule =
        ChaosSchedule::random(seed, all_face_shape());
    for (const ChaosEvent& event : schedule.events()) drawn.insert(event.kind);

    core::SailfishSystem one = core::make_system(all_face_options());
    core::SailfishSystem eight = core::make_system(all_face_options());
    one.region->set_interval_threads(1);
    eight.region->set_interval_threads(8);
    ChaosInjector injector_one(*one.region, one.flows, config);
    ChaosInjector injector_eight(*eight.region, eight.flows, config);
    const ChaosReport report = injector_one.run(schedule);
    const ChaosReport report_eight = injector_eight.run(schedule);

    EXPECT_TRUE(report.converged()) << report.to_json();
    for (const FaultRecord& fault : report.faults) {
      EXPECT_GE(fault.recovered_at, 0.0) << fault.event.to_string();
    }
    EXPECT_EQ(report.to_json(), report_eight.to_json());
    EXPECT_EQ(injector_one.log().to_string(),
              injector_eight.log().to_string());
  }
  // The seeds do exercise every opt-in face.
  for (const FaultKind kind :
       {FaultKind::kTenantStorm, FaultKind::kDpuFailure,
        FaultKind::kChurnStorm, FaultKind::kControllerBrownout}) {
    EXPECT_TRUE(drawn.contains(kind)) << to_string(kind);
  }
}

}  // namespace
}  // namespace sf::chaos

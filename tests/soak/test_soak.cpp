// SoakEngine end to end, compressed: a short multi-region soak must come
// out violation-free with every non-storm tenant inside its drop budget,
// and two runs differing only in interval-engine thread count must render
// byte-identical reports — the regression canary bench_soak enforces at
// week scale, kept here at a size ctest can afford.

#include "soak/soak.hpp"

#include <gtest/gtest.h>

#include "golden.hpp"

namespace sf::soak {
namespace {

SoakEngine::Config short_config(std::size_t threads) {
  SoakEngine::Config config;
  config.seed = 5;
  config.regions = 2;
  config.sim_hours = 3.0;  // 18 recorded intervals per region
  config.interval_threads = threads;
  config.warmup_intervals = 1;
  config.settle_intervals = 6;
  // Collect violations instead of aborting so a regression shows up as a
  // readable test failure, not a process death.
  config.fatal_on_violation = false;
  return config;
}

TEST(SoakEngine, ShortSoakPassesCleanAcrossRegions) {
  SoakEngine engine(short_config(1));
  const SoakEngine::Report report = engine.run();

  EXPECT_EQ(report.regions, 2u);
  EXPECT_EQ(report.intervals, 18u);
  EXPECT_TRUE(report.pass) << report.to_json();
  EXPECT_EQ(report.total_violations, 0u);
  EXPECT_EQ(report.total_budget_violations, 0u);

  ASSERT_EQ(report.region_summaries.size(), 2u);
  for (const SoakEngine::RegionSummary& region : report.region_summaries) {
    EXPECT_TRUE(region.violations.empty());
    EXPECT_TRUE(region.budget_violations.empty());
    EXPECT_GT(region.offered_pkts, 0.0);
    EXPECT_GE(region.availability, 0.0);
    EXPECT_LE(region.availability, 1.0);
    // Audits ran every interval (warmup + recorded + settle).
    EXPECT_GE(region.audits_run, 18u);
    // The SNAT stream ran and the ledger metered real tenants.
    EXPECT_GT(region.snat_sessions, 0u);
    EXPECT_FALSE(region.tenants.empty());
    for (const TenantSlo& tenant : region.tenants) {
      EXPECT_TRUE(tenant.in_budget(report.drop_budget))
          << "vni " << tenant.vni;
    }
  }
}

TEST(SoakEngine, ReportIsByteIdenticalAcrossThreadCounts) {
  SoakEngine one(short_config(1));
  SoakEngine eight(short_config(8));
  const std::string a = one.run().to_json();
  const std::string b = eight.run().to_json();
  EXPECT_EQ(a, b);
  // Sanity on the rendering itself: the canary compares these bytes, so
  // the stable sections must actually be present.
  EXPECT_NE(a.find("\"region_reports\""), std::string::npos);
  EXPECT_NE(a.find("\"tenants\""), std::string::npos);
  EXPECT_NE(a.find("\"pass\": true"), std::string::npos);
}

TEST(SoakGolden, ShortSoakReport) {
  SoakEngine engine(short_config(1));
  expect_golden("soak_short_report.json", engine.run().to_json());
}

}  // namespace
}  // namespace sf::soak

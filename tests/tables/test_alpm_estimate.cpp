// The calibrated analytic ALPM shape model (estimate_alpm_shape) vs
// measured Alpm::stats(): the placer sizes the §4.4(e) directory and
// buckets from this estimate, so it must track the real structure — the
// regression bound here is 5% at 1M routes (the perf bench re-checks 5M
// and 10M). The route generator mirrors the calibration run: Zipf VPC
// shares, 75/25 v4/v6, bucket bound 32.

#include "tables/alpm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tables/tcam.hpp"
#include "workload/rng.hpp"
#include "workload/zipf.hpp"

namespace sf::tables {
namespace {

TEST(AlpmEstimate, FillCurveIsMonotoneAndClamped) {
  EXPECT_DOUBLE_EQ(expected_alpm_fill(4), expected_alpm_fill(8));
  EXPECT_DOUBLE_EQ(expected_alpm_fill(128), expected_alpm_fill(256));
  double prev = 0;
  for (std::size_t bucket : {8u, 16u, 32u, 64u, 128u}) {
    const double fill = expected_alpm_fill(bucket);
    EXPECT_GE(fill, prev) << bucket;
    EXPECT_GT(fill, 0.4) << bucket;
    EXPECT_LT(fill, 0.8) << bucket;
    prev = fill;
  }
}

TEST(AlpmEstimate, ShapeArithmetic) {
  const AlpmShapeEstimate estimate = estimate_alpm_shape(1'000, 32, 4, 1);
  EXPECT_GE(estimate.partitions, 1u);
  EXPECT_EQ(estimate.directory_slices, estimate.partitions * 4);
  EXPECT_EQ(estimate.bucket_words, estimate.partitions * 32);
  // Zero routes still cost one partition (the root).
  EXPECT_EQ(estimate_alpm_shape(0, 32, 4, 1).partitions, 1u);
}

TEST(AlpmEstimate, TracksMeasuredStatsAtOneMillionRoutes) {
  constexpr std::size_t kTotal = 1'000'000;
  constexpr std::size_t kBucket = 32;
  Alpm<VxlanRouteAction>::Config config;
  config.max_bucket_entries = kBucket;
  Alpm<VxlanRouteAction> alpm(config);

  workload::Rng rng(2024);
  const std::size_t vpcs = 60'000;
  const std::vector<double> shares = workload::zipf_weights(vpcs, 1.0);
  std::size_t inserted = 0;
  for (std::size_t v = 0; v < vpcs && inserted < kTotal; ++v) {
    const net::Vni vni = static_cast<net::Vni>(1000 + v);
    const bool v6 = rng.chance(0.25);
    const std::size_t routes = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(shares[v] * static_cast<double>(kTotal)));
    for (std::size_t r = 0; r < routes && inserted < kTotal; ++r) {
      if (v6) {
        alpm.insert(vni, net::Ipv6Prefix(net::Ipv6Addr(rng.next_u64(), 0), 64),
                    {});
      } else {
        alpm.insert(
            vni,
            net::Ipv4Prefix(
                net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), 24),
            {});
      }
      ++inserted;
    }
  }

  const auto stats = alpm.stats();
  ASSERT_GT(stats.routes, 900'000u);  // random collisions dedup a few

  const unsigned dir_slices = (kPooledRouteKeyBits + 43) / 44;  // 153b key
  const AlpmShapeEstimate estimate =
      estimate_alpm_shape(stats.routes, kBucket, dir_slices, 1);
  const auto relative_error = [](std::size_t got, std::size_t want) {
    return std::abs(static_cast<double>(got) - static_cast<double>(want)) /
           static_cast<double>(want);
  };
  EXPECT_LT(relative_error(estimate.partitions, stats.partitions), 0.05)
      << "estimated " << estimate.partitions << " measured "
      << stats.partitions;
  EXPECT_LT(
      relative_error(estimate.directory_slices, stats.directory_slices), 0.05)
      << "estimated " << estimate.directory_slices << " measured "
      << stats.directory_slices;
  EXPECT_LT(
      relative_error(estimate.bucket_words, stats.allocated_bucket_words),
      0.05)
      << "estimated " << estimate.bucket_words << " measured "
      << stats.allocated_bucket_words;
}

}  // namespace
}  // namespace sf::tables

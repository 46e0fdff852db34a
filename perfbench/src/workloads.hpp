// The benchmark's workloads. Each one builds its fixture from the seed,
// measures for `args.seconds`, checks every output against its oracle and
// fills `report`.

#pragma once

#include "common.hpp"

namespace pb {

/// fwd_cold / fwd_hot: ShardEngine::process_packets over 8 XGW-H shard
/// devices at cloud-scale tables; `hot` selects the cached Zipf stream.
void run_fwd(const RunArgs& args, bool hot, Report& report);

/// x86_churn: 8 XGW-x86 shard nodes forwarding while a mutator thread
/// applies a stamped migration/onboarding stream through UpdatePlan.
void run_x86_churn(const RunArgs& args, Report& report);

/// region_day: a SailfishRegion stepped through simulated intervals with
/// controller writes, probe packets and telemetry snapshots.
void run_region_day(const RunArgs& args, Report& report);

/// 64-bit mixer for seeded input generation (SplitMix64 finaliser).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small seeded generator for the workloads' input streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return mix64(state_++); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

}  // namespace pb

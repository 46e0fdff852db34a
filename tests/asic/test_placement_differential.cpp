// Differential placement verification (DESIGN.md §16): seeded random
// workloads evolve through Placer::replace() while every step is checked
// against (1) a from-scratch placement and (2) the naive reference
// interpreter in placement_reference.hpp — an independent coding of the
// §4.4 rules. Packets are replayed through the tables the program's stages
// read (asic::kGatewayProgram) and their unit->pipe verdicts compared.
// Any divergence is fatal: occupancy accounting must match exactly, and
// fresh layouts must agree with the reference segment for segment.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asic/placement.hpp"
#include "asic/placer.hpp"
#include "placement_reference.hpp"
#include "workload/rng.hpp"

namespace sf::asic {
namespace {

using testref::NaiveLayout;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

GatewayWorkload random_workload(workload::Rng& rng) {
  GatewayWorkload w = empty_gateway_workload();
  w.vxlan_routes_v4 = 100'000 + rng.uniform(800'000);
  w.vxlan_routes_v6 = 50'000 + rng.uniform(250'000);
  w.vm_maps_v4 = 100'000 + rng.uniform(800'000);
  w.vm_maps_v6 = 50'000 + rng.uniform(250'000);
  w.digest_conflicts = 8;
  w.acl_rules = rng.uniform(100'000);
  w.meters = rng.uniform(200'000);
  w.counters = rng.uniform(500'000);
  w.steering_entries = 64;
  return w;
}

WorkloadDelta random_delta(workload::Rng& rng) {
  WorkloadDelta delta;
  const auto signed_step = [&](std::uint64_t bound) {
    const std::int64_t size = static_cast<std::int64_t>(rng.uniform(bound));
    return rng.uniform(2) == 0 ? size : -size;
  };
  delta.vxlan_routes_v4 = signed_step(30'000);
  delta.vxlan_routes_v6 = signed_step(10'000);
  delta.vm_maps_v4 = signed_step(30'000);
  delta.vm_maps_v6 = signed_step(10'000);
  delta.acl_rules = signed_step(5'000);
  delta.meters = signed_step(8'000);
  delta.counters = signed_step(20'000);
  if (delta.empty()) delta.vxlan_routes_v4 = 1;
  return delta;
}

// The spill order a chain may legally follow (mirror of the documented
// chain_pipes rule, computed from public layout state).
std::vector<unsigned> allowed_pipes(const Placement& layout,
                                    std::size_t path_index, PathSlot slot) {
  const auto& paths = layout.paths();
  const bool back_slot =
      slot == PathSlot::kBackEgress || slot == PathSlot::kBackIngress;
  std::vector<unsigned> order;
  const auto push_path = [&](const std::vector<unsigned>& pipes) {
    order.push_back(pipes[back_slot && pipes.size() > 1 ? 1 : 0]);
    if (pipes.size() > 1) order.push_back(pipes[back_slot ? 0 : 1]);
  };
  push_path(paths[path_index]);
  if (layout.compression().cross_path_spill) {
    for (std::size_t offset = 1; offset < paths.size(); ++offset) {
      push_path(paths[(path_index + offset) % paths.size()]);
    }
  }
  return order;
}

// Fresh engine layout vs the naive reference: exact structural equality —
// pipe accounting, feasibility, and every chain segment for segment.
void expect_matches_reference(const Placement& layout,
                              const NaiveLayout& naive) {
  for (unsigned p = 0; p < layout.chip().pipelines; ++p) {
    ASSERT_EQ(layout.pipe_units(p, MemoryKind::kSram), naive.sram_pipe[p])
        << "SRAM pipe " << p;
    ASSERT_EQ(layout.pipe_units(p, MemoryKind::kTcam), naive.tcam_pipe[p])
        << "TCAM pipe " << p;
  }
  ASSERT_EQ(layout.feasible(), naive.feasible);
  ASSERT_EQ(layout.table_count(), naive.demands.size());
  ASSERT_EQ(layout.paths(), naive.paths);
  for (std::size_t t = 0; t < layout.table_count(); ++t) {
    ASSERT_EQ(layout.demand(t).name, naive.demands[t].name);
    for (MemoryKind kind : {MemoryKind::kSram, MemoryKind::kTcam}) {
      ASSERT_EQ(layout.sharded_units(t, kind), naive.bill(t, kind))
          << naive.demands[t].name;
      for (std::size_t path = 0; path < naive.paths.size(); ++path) {
        const auto& ref = naive.chain(t, path, kind);
        ASSERT_EQ(layout.placed_units(t, path, kind), ref.placed)
            << naive.demands[t].name << " path " << path;
        ASSERT_EQ(layout.unplaced_units(t, path, kind), ref.unplaced)
            << naive.demands[t].name << " path " << path;
        const auto segments = layout.segments(t, path, kind);
        ASSERT_EQ(segments.size(), ref.spans.size())
            << naive.demands[t].name << " path " << path;
        for (std::size_t i = 0; i < segments.size(); ++i) {
          ASSERT_EQ(segments[i].pipe, ref.spans[i].pipe)
              << naive.demands[t].name << " seg " << i;
          ASSERT_EQ(segments[i].units, ref.spans[i].units)
              << naive.demands[t].name << " seg " << i;
        }
      }
    }
  }
}

// The tables a packet of `family` reads, in walk order: every table the
// program's stages read but the other family's unpooled tables. Callers
// skip the names their workload did not place.
std::vector<std::string_view> lookup_tables(net::IpFamily family) {
  const std::string_view other =
      family == net::IpFamily::kV4 ? "_v6" : "_v4";
  std::vector<std::string_view> names;
  for (const StageLayout& stage : kGatewayProgram) {
    for (const std::string_view name : stage.tables) {
      if (!name.empty() && !name.ends_with(other)) names.push_back(name);
    }
  }
  return names;
}

// Replay packets through the lookup order and compare unit->pipe
// verdicts between the engine layout and the reference.
void replay_packets(const Placement& layout, const NaiveLayout& naive,
                    std::uint64_t seed, std::size_t packets) {
  for (std::size_t i = 0; i < packets; ++i) {
    const std::uint64_t h = mix(seed * 1'000'003 + i);
    const net::IpFamily family =
        (h & 3) == 0 ? net::IpFamily::kV6 : net::IpFamily::kV4;
    const std::size_t path = (h >> 2) % layout.paths().size();
    for (const std::string_view name : lookup_tables(family)) {
      const auto table = layout.table_index(name);
      if (!table) continue;  // not part of this workload's program
      for (MemoryKind kind : {MemoryKind::kSram, MemoryKind::kTcam}) {
        const std::size_t bill = layout.sharded_units(*table, kind);
        if (bill == 0) continue;
        const std::size_t unit =
            mix(h ^ (*table * 2 + (kind == MemoryKind::kSram ? 0 : 1))) %
            bill;
        ASSERT_EQ(layout.locate_unit(*table, path, kind, unit),
                  naive.locate(*table, path, kind, unit))
            << name << " unit " << unit << " path " << path;
      }
    }
  }
}

// The evolved (incremental) layout vs a fresh one: exact occupancy
// accounting, and verdicts that stay inside the legal spill order.
// Segment extents may legally differ (bounded fragmentation), so chains
// that diverged structurally are checked for membership, equal chains
// for exact verdicts.
void expect_evolved_parity(const Placement& live, const Placement& fresh) {
  for (unsigned p = 0; p < live.chip().pipelines; ++p) {
    ASSERT_EQ(live.pipe_units(p, MemoryKind::kSram),
              fresh.pipe_units(p, MemoryKind::kSram))
        << "SRAM pipe " << p;
    ASSERT_EQ(live.pipe_units(p, MemoryKind::kTcam),
              fresh.pipe_units(p, MemoryKind::kTcam))
        << "TCAM pipe " << p;
  }
  ASSERT_EQ(live.feasible(), fresh.feasible());
  ASSERT_EQ(live.table_count(), fresh.table_count());
  for (std::size_t t = 0; t < live.table_count(); ++t) {
    ASSERT_EQ(live.demand(t).name, fresh.demand(t).name);
    for (MemoryKind kind : {MemoryKind::kSram, MemoryKind::kTcam}) {
      ASSERT_EQ(live.sharded_units(t, kind), fresh.sharded_units(t, kind));
      for (std::size_t path = 0; path < live.paths().size(); ++path) {
        ASSERT_EQ(live.placed_units(t, path, kind),
                  fresh.placed_units(t, path, kind))
            << live.demand(t).name << " path " << path;
        ASSERT_EQ(live.unplaced_units(t, path, kind),
                  fresh.unplaced_units(t, path, kind))
            << live.demand(t).name << " path " << path;
        const std::vector<unsigned> legal =
            allowed_pipes(live, path, live.demand(t).slot);
        for (const Placement::Segment& segment :
             live.segments(t, path, kind)) {
          bool ok = false;
          for (unsigned pipe : legal) ok = ok || pipe == segment.pipe;
          ASSERT_TRUE(ok) << live.demand(t).name << " spilled to pipe "
                          << segment.pipe << " outside its chain order";
        }
      }
    }
  }
}

struct Scenario {
  unsigned pipelines;
  bool cross_path_spill;
};

void run_differential(std::uint64_t seed, const Scenario& scenario) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " pipes " +
               std::to_string(scenario.pipelines));
  ChipConfig chip;
  chip.pipelines = scenario.pipelines;
  CompressionConfig config = CompressionConfig::all();
  config.cross_path_spill = scenario.cross_path_spill;
  const Placer placer(chip);

  workload::Rng rng(seed);
  GatewayWorkload w = random_workload(rng);
  Placement live = placer.place_layout(w, config);
  {
    const NaiveLayout naive =
        testref::naive_place(chip, compute_demands(chip, w, config), config);
    expect_matches_reference(live, naive);
    replay_packets(live, naive, seed, 64);
  }

  for (int step = 0; step < 10; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    WorkloadDelta delta = random_delta(rng);
    if (step == 5) delta.counters = 40'000'000;   // overflow burst
    if (step == 6) delta.counters = -40'000'000;  // and recovery
    live = placer.replace(live, delta);
    w = delta.applied_to(w);

    const Placement fresh = placer.place_layout(w, config);
    const NaiveLayout naive =
        testref::naive_place(chip, compute_demands(chip, w, config), config);
    expect_matches_reference(fresh, naive);
    replay_packets(fresh, naive, seed * 31 + step, 64);
    expect_evolved_parity(live, fresh);
  }
  const PlacementStats& stats = live.stats();
  EXPECT_EQ(stats.delta_applies + stats.full_recomputes, 10u);
}

TEST(PlacementDifferential, Seed1FourPipes) {
  run_differential(1, {4, false});
}
TEST(PlacementDifferential, Seed2FourPipes) {
  run_differential(2, {4, false});
}
TEST(PlacementDifferential, Seed3FourPipes) {
  run_differential(3, {4, false});
}
TEST(PlacementDifferential, Seed1EightPipesCrossSpill) {
  run_differential(1, {8, true});
}
TEST(PlacementDifferential, Seed2EightPipesCrossSpill) {
  run_differential(2, {8, true});
}
TEST(PlacementDifferential, Seed3EightPipesCrossSpill) {
  run_differential(3, {8, true});
}

}  // namespace
}  // namespace sf::asic

// Retained placement layouts and incremental re-placement (DESIGN.md §16).
//
// Placer::place()/evaluate() answer "does this workload fit" in one shot;
// a controller pushing thousands of route deltas per interval through
// TableProgrammer v2 cannot afford to recompute the layout (let alone the
// O(N) demand recount behind it) on every batch. A Placement is the
// placer's full output kept alive: per-table spill chains (the ordered
// extents each table occupies on each path), the chip memory they came
// from, and the per-pipe demand accounting. Placer::replace() edits that
// state under a WorkloadDelta, touching only the affected tables' chains.
//
// Parity invariant: every Placement returned by replace() has per-pipe
// demand accounting, per-path bills and feasibility identical to a
// from-scratch placement of the same workload. The incremental path is
// adopted only when it provably lands on that same accounting (checked
// against a cheap shadow placement); otherwise — and once fragmentation
// crosses CompressionConfig::replace_fragmentation_limit — the engine
// falls back to the shadow, which *is* the from-scratch layout. Stage-level
// extents may differ (incremental growth extends chain tails instead of
// repacking), which is exactly the fragmentation the limit bounds.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asic/memory.hpp"
#include "asic/placer.hpp"

namespace sf::asic {

/// Signed entry-count change of a GatewayWorkload — the placement-level
/// view of a TableOpBatch.
struct WorkloadDelta {
  std::int64_t vxlan_routes_v4 = 0;
  std::int64_t vxlan_routes_v6 = 0;
  std::int64_t vm_maps_v4 = 0;
  std::int64_t vm_maps_v6 = 0;
  std::int64_t digest_conflicts = 0;
  std::int64_t acl_rules = 0;
  std::int64_t meters = 0;
  std::int64_t counters = 0;
  std::int64_t steering_entries = 0;

  bool empty() const;
  /// Sum of absolute field changes (the "delta size" latency targets are
  /// quoted against).
  std::size_t magnitude() const;
  WorkloadDelta& operator+=(const WorkloadDelta& other);
  /// The delta applied to a workload, clamped at zero per field.
  GatewayWorkload applied_to(GatewayWorkload base) const;
};

/// Lifetime counters of a layout maintained through replace().
struct PlacementStats {
  std::uint64_t delta_applies = 0;    // incremental path adopted
  std::uint64_t full_recomputes = 0;  // shadow (from-scratch) adopted
  std::uint64_t moved_units = 0;      // units allocated/released by deltas
  std::uint64_t touched_tables = 0;   // table chains edited by deltas
  /// Off-plan spill segments opened or emptied by incremental moves; the
  /// replace() compaction trigger.
  std::uint64_t fragmentation_events = 0;
};

/// A placed layout: everything Placer::place() computed, kept alive.
class Placement {
 public:
  /// One merged run of a table's spill chain on a single pipe.
  struct Segment {
    unsigned pipe = 0;
    std::size_t units = 0;
  };

  Placement() = default;

  const ChipConfig& chip() const { return chip_; }
  const CompressionConfig& compression() const { return config_; }
  const GatewayWorkload& workload() const { return workload_; }
  /// Gateway paths: folded -> pipe pairs, unfolded -> single pipes.
  const std::vector<std::vector<unsigned>>& paths() const { return paths_; }

  std::size_t table_count() const { return tables_.size(); }
  std::optional<std::size_t> table_index(std::string_view name) const;
  const TableDemand& demand(std::size_t table) const {
    return tables_[table].demand;
  }
  /// Per-path bill of one table (after sharding under technique (b)).
  std::size_t sharded_units(std::size_t table, MemoryKind kind) const;

  /// The table's spill chain on one path, adjacent same-pipe extents
  /// merged, in allocation (= lookup fallback) order.
  std::vector<Segment> segments(std::size_t table, std::size_t path,
                                MemoryKind kind) const;
  std::size_t placed_units(std::size_t table, std::size_t path,
                           MemoryKind kind) const;
  std::size_t unplaced_units(std::size_t table, std::size_t path,
                             MemoryKind kind) const;
  /// Which pipe holds the `unit`-th unit of the table's per-path bill;
  /// nullopt when that unit overflowed (unplaced).
  std::optional<unsigned> locate_unit(std::size_t table, std::size_t path,
                                      MemoryKind kind,
                                      std::size_t unit) const;

  /// Demand-based per-pipe accounting (includes unplaced overflow charged
  /// to the preferred pipe — same accounting the OccupancyReport shows).
  std::size_t pipe_units(unsigned pipe, MemoryKind kind) const;
  /// Segments beyond each chain's first — how much spill the layout holds.
  std::size_t spill_segment_count() const;

  bool feasible() const { return feasible_; }
  const PlacementStats& stats() const { return stats_; }
  std::size_t fragmentation_score() const {
    return static_cast<std::size_t>(stats_.fragmentation_events);
  }

  /// The occupancy report a plain place() of this layout's demands yields.
  OccupancyReport report() const;

 private:
  friend class Placer;

  /// Allocation-ordered extents of one (table, path, kind) — the spill
  /// chain. `placed + unplaced` equals the sharded per-path bill.
  struct KindChain {
    std::vector<Extent> extents;
    std::size_t placed = 0;
    std::size_t unplaced = 0;
  };
  struct PlacedTable {
    TableDemand demand;          // unsharded bill
    std::size_t sram_units = 0;  // per-path bill after sharding
    std::size_t tcam_units = 0;
    std::vector<KindChain> sram;  // one chain per path
    std::vector<KindChain> tcam;
  };

  KindChain& chain(std::size_t table, std::size_t path, MemoryKind kind) {
    return kind == MemoryKind::kSram ? tables_[table].sram[path]
                                     : tables_[table].tcam[path];
  }
  const KindChain& chain(std::size_t table, std::size_t path,
                         MemoryKind kind) const {
    return kind == MemoryKind::kSram ? tables_[table].sram[path]
                                     : tables_[table].tcam[path];
  }

  /// Pipes to try, in order, for a table in `slot` on `path_index`:
  /// preferred pipe, path sibling, then (cross_path_spill) every other
  /// path's same-position pipe and its sibling.
  std::vector<unsigned> chain_pipes(std::size_t path_index,
                                    PathSlot slot) const;
  unsigned preferred_pipe(std::size_t path_index, PathSlot slot) const;

  /// Grows/shrinks one chain to `target` units, spilling along
  /// chain_pipes(); returns false when the edit cannot keep the layout's
  /// accounting coherent (caller falls back to the shadow).
  bool adjust_chain(std::size_t table, std::size_t path, MemoryKind kind,
                    std::size_t target);
  /// Balanced tables re-balance toward the fresh per-pipe targets.
  bool adjust_balanced(std::size_t table, std::size_t path, MemoryKind kind,
                       std::size_t target);
  /// adjust_balanced() for a balanced table, adjust_chain() otherwise.
  bool adjust(std::size_t table, std::size_t path, MemoryKind kind,
              std::size_t target);
  /// Applies a fresh demand list to this layout in place; false → bail.
  bool apply_demands(const std::vector<TableDemand>& next);
  void grow_on_pipe(std::size_t table, std::size_t path, MemoryKind kind,
                    unsigned pipe, std::size_t units);
  std::size_t shrink_on_pipe(std::size_t table, std::size_t path,
                             MemoryKind kind, unsigned pipe,
                             std::size_t units);
  void recount_feasible();
  /// True when per-pipe accounting and feasibility match `other` — the
  /// parity gate replace() adopts incremental layouts through.
  bool accounting_matches(const Placement& other) const;

  ChipConfig chip_{};
  CompressionConfig config_{};
  GatewayWorkload workload_{};
  std::vector<std::vector<unsigned>> paths_;
  std::vector<PlacedTable> tables_;
  std::optional<ChipMemory> memory_;
  std::vector<std::size_t> sram_demand_;  // per-pipe, incl. overflow
  std::vector<std::size_t> tcam_demand_;
  bool feasible_ = true;
  PlacementStats stats_{};
};

/// All-zero entry counts (GatewayWorkload defaults to the paper's 1M
/// scale) — the starting point for delta-driven layouts.
inline GatewayWorkload empty_gateway_workload() {
  GatewayWorkload workload;
  workload.vxlan_routes_v4 = workload.vxlan_routes_v6 = 0;
  workload.vm_maps_v4 = workload.vm_maps_v6 = 0;
  workload.digest_conflicts = 0;
  workload.acl_rules = workload.meters = 0;
  workload.counters = workload.steering_entries = 0;
  return workload;
}

/// Owns a Placer plus the live Placement it maintains — the controller's
/// view of incremental re-placement: accumulate a WorkloadDelta per
/// TableOpBatch, apply() it here, read the layout and stats back.
class PlacementEngine {
 public:
  struct Config {
    ChipConfig chip;
    CompressionConfig compression = CompressionConfig::all();
    /// Workload the layout starts from; the delta stream grows it.
    GatewayWorkload initial = empty_gateway_workload();
  };

  explicit PlacementEngine(const Config& config)
      : placer_(config.chip),
        placement_(placer_.place_layout(config.initial, config.compression)) {
  }

  /// Applies a delta to the live layout. Empty deltas are a no-op.
  void apply(const WorkloadDelta& delta) {
    if (delta.empty()) return;
    placement_ = placer_.replace(placement_, delta);
  }

  const Placement& placement() const { return placement_; }
  const Placer& placer() const { return placer_; }
  const PlacementStats& stats() const { return placement_.stats(); }

 private:
  Placer placer_;
  Placement placement_;
};

}  // namespace sf::asic

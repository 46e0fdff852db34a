// The table placer: maps logical gateway tables onto SfChip memories under
// a chosen combination of the paper's six single-node compression
// techniques (§4.4), and reports occupancy. This is the engine behind
// Table 2, Table 3, Table 4 and Fig. 17.
//
// Technique -> model:
//  (a) pipeline folding       — a logical gateway path spans two pipelines
//      (0+1 and 2+3), so tables are stored twice per chip instead of four
//      times; throughput halves, latency doubles (walker).
//  (b) table splitting        — the two folded paths hold disjoint halves
//      of each shardable table (hash of VNI/inner IP picks the path).
//  (c) IPv4/IPv6 pooling      — one dual-stack LPM table; v4 keys widen to
//      the 153-bit pooled key (more TCAM per v4 entry, one table).
//  (d) entry compression      — pooled exact-match keys: v6 IPs digest to
//      32 bits, entries shrink to one SRAM word plus a tiny conflict table.
//  (e) ALPM                   — the LPM bulk moves to SRAM buckets behind a
//      small TCAM directory (tables/alpm.hpp supplies measured stats).
//
// Placement honors the §4.4 layout principles: each table is assigned the
// path slot of the stage that reads it (kGatewayProgram below), in lookup
// order (Ingress front pipe -> Egress back pipe -> Ingress back pipe ->
// Egress front pipe); when a table overflows its slot's pipe it spills to
// the path's other pipe — exactly the "mapping large tables across
// pipelines" technique.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asic/chip_config.hpp"
#include "asic/memory.hpp"
#include "tables/entry.hpp"

namespace sf::asic {

/// Entry counts of the gateway's tables (the paper's workload scale).
struct GatewayWorkload {
  std::size_t vxlan_routes_v4 = 750'000;
  std::size_t vxlan_routes_v6 = 250'000;
  std::size_t vm_maps_v4 = 750'000;
  std::size_t vm_maps_v6 = 250'000;
  /// Digest conflicts measured by the DigestVmNcTable (tiny; birthday
  /// bound ~ n^2 / 2^33).
  std::size_t digest_conflicts = 8;

  // Service tables, counted only by Table 4's "overall" scenario.
  std::size_t acl_rules = 0;
  std::size_t meters = 0;
  std::size_t counters = 0;
  std::size_t steering_entries = 0;
};

/// Measured ALPM shape (from tables::Alpm<...>::stats()), or an analytic
/// estimate when not supplied.
struct AlpmDemand {
  std::size_t directory_slices = 0;
  std::size_t bucket_words = 0;
};

struct CompressionConfig {
  bool fold = false;      // (a)
  bool split = false;     // (b) requires fold
  bool pool = false;      // (c)
  bool compress = false;  // (d)
  bool alpm = false;      // (e)
  /// (f) cross-path spill: when a table overflows both pipes of its own
  /// path, keep spilling into the *other* paths' pipes (same slot position
  /// first, then the sibling) before declaring the demand unplaced. Off by
  /// default — the paper's 4-pipe chip never needs it; the 10M-route
  /// multi-pipeline scenarios do.
  bool cross_path_spill = false;

  std::size_t alpm_max_bucket = 32;
  /// Expected bucket fill used for the analytic ALPM estimate when no
  /// measured stats are provided. A positive value pins the legacy
  /// fixed-fill formula; <= 0 (the default) selects the calibrated model
  /// (tables::estimate_alpm_shape), which tracks Alpm::stats() within 5%
  /// from 1M to 10M routes.
  double alpm_estimated_fill = 0;
  std::optional<AlpmDemand> measured_alpm;

  /// Placer::replace() falls back to a full recompute once a layout has
  /// accumulated this many fragmentation events (off-plan spill segments
  /// opened or emptied by incremental moves).
  std::size_t replace_fragmentation_limit = 64;

  static CompressionConfig none() { return {}; }
  static CompressionConfig all() {
    CompressionConfig c;
    c.fold = c.split = c.pool = c.compress = c.alpm = true;
    return c;
  }
};

/// Where a table sits along the folded path (lookup order).
enum class PathSlot : std::uint8_t {
  kFrontIngress,  // Ingress Pipe 0/2 — first lookup
  kBackEgress,    // Egress Pipe 1/3
  kBackIngress,   // Ingress Pipe 1/3
  kFrontEgress,   // Egress Pipe 0/2 — last lookup
  kBalanced,      // evenly split across the path's pipes (§4.4 principle 3)
};

/// The XGW-H program's stages, in walk order.
enum class GatewayStage : std::uint8_t {
  kEntry, kAcl, kRoute, kVmNc, kRewrite
};

/// One stage of the XGW-H program: the gress it runs in on the folded path
/// and the placement tables it reads (compute_demands() names; "" pads).
struct StageLayout {
  PathSlot gress;
  std::array<std::string_view, 6> tables;
};

/// The XGW-H program as data (§4.4, Figs. 13/14), indexed by GatewayStage:
/// the one description of where each stage runs and which tables it reads.
/// XgwH::build_program() binds its gresses from it (unfolded, the entry
/// ingress runs every stage before the rewrite), and compute_demands()
/// bills each table at its reading stage's gress.
inline constexpr StageLayout kGatewayProgram[] = {
    {PathSlot::kFrontIngress, {}},  // entry: VNI check, shard select
    {PathSlot::kFrontIngress, {"acl"}},
    {PathSlot::kBackEgress,
     {"vxlan_route_alpm_dir", "vxlan_route_alpm_buckets", "vxlan_route_pooled",
      "vxlan_route_v4", "vxlan_route_v6", "fallback_steering"}},
    {PathSlot::kBackIngress,
     {"vm_nc_pooled", "vm_nc_conflicts", "vm_nc_v4", "vm_nc_v6", "meters"}},
    {PathSlot::kFrontEgress, {"counters"}},  // the tunnel rewrite
};

/// One logical table's memory bill.
struct TableDemand {
  std::string name;
  std::size_t sram_words = 0;
  std::size_t tcam_slices = 0;
  /// Shardable tables split entries across paths under (b); control
  /// tables replicate instead.
  bool shardable = true;
  PathSlot slot = PathSlot::kFrontIngress;
};

/// Per-pipeline occupancy fractions.
struct PipeOccupancy {
  double sram = 0;
  double tcam = 0;
};

struct OccupancyReport {
  std::vector<PipeOccupancy> pipes;   // size = chip pipelines
  double sram_worst = 0;              // max over pipelines
  double tcam_worst = 0;
  /// Path-level occupancy: one gateway instance's demand over all memory
  /// its path traverses (folding doubles the denominator). This is the
  /// accounting Fig. 17 and Tables 2/3 report.
  std::vector<PipeOccupancy> paths;
  double sram_path_worst = 0;
  double tcam_path_worst = 0;
  bool feasible = false;              // physical allocation succeeded
  std::vector<TableDemand> demands;   // the per-table bill (unsharded)
};

/// Computes each logical table's demand under a compression config.
std::vector<TableDemand> compute_demands(const ChipConfig& chip,
                                         const GatewayWorkload& workload,
                                         const CompressionConfig& config);

class Placement;
struct WorkloadDelta;

class Placer {
 public:
  explicit Placer(ChipConfig chip) : chip_(chip) {}

  /// Full evaluation: demands + placement + occupancy.
  OccupancyReport evaluate(const GatewayWorkload& workload,
                           const CompressionConfig& config) const;

  /// Places externally computed demands (used by Table 4's bench, which
  /// balances the ALPM buckets across the path).
  OccupancyReport place(std::vector<TableDemand> demands,
                        const CompressionConfig& config) const;

  // ---- retained layouts (asic/placement.hpp) -----------------------------
  // Same arithmetic as evaluate()/place(), but the result keeps the full
  // layout (per-table spill chains, extents, chip memory) so deltas can be
  // applied in place instead of recomputing everything.

  Placement place_layout(const GatewayWorkload& workload,
                         const CompressionConfig& config) const;
  Placement place_layout(std::vector<TableDemand> demands,
                         const CompressionConfig& config,
                         const GatewayWorkload& workload) const;

  /// Applies a workload delta to an existing layout. Incremental moves
  /// touch only the affected tables' spill chains; the result is always
  /// occupancy-identical to a from-scratch placement of the new workload
  /// (the engine falls back to a full recompute whenever the incremental
  /// layout would diverge, or once fragmentation crosses
  /// CompressionConfig::replace_fragmentation_limit). Defined for layouts
  /// built from a GatewayWorkload — demand-vector layouts (Table 4 style)
  /// should be re-placed instead.
  Placement replace(const Placement& base, const WorkloadDelta& delta) const;

  const ChipConfig& chip() const { return chip_; }

 private:
  ChipConfig chip_;
};

}  // namespace sf::asic

// sf::dpu::TierPlacer — sketch-driven elephant promotion into the DPU tier
// (DESIGN.md §11).
//
// The three-tier placement question is "which flows deserve a DPU table
// entry?". The answer the paper's telemetry machinery already computes:
// elephants. Each interval the region feeds every software-tier flow's
// packet rate into a per-shard HeavyHitterTracker (count-min sketch +
// bounded top-K), the sketch decays so estimates track *recent* rate, and
// a single sequential pass promotes the heaviest unplaced candidates into
// the DPU flow tables and demotes placed flows that have gone quiet.
//
// Determinism contract: the region calls begin_interval() and observe()
// from one thread, in flow order, so each sketch sees its additions in one
// fixed sequence; apply() runs once per interval over ordered state —
// placements_ is an ordered map, candidates are sorted by (estimate desc,
// vni asc, tuple asc), and node choice is a pure hash of the VNI — so the
// placement state after any interval is byte-identical at any thread
// count. Flows spread over `shards` sketches by mix64(vni), each with its
// own seed, so one tenant's hash collisions never alias into another
// sketch's estimates; the partition stays inside the placer.
//
// The placer decides; the region executes. apply() takes install/remove
// callbacks so the policy is testable without any XgwDpu behind it, and so
// a refused install (kCapacityExceeded on a full table) simply leaves the
// flow in the x86 tier until an entry frees up.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/headers.hpp"
#include "telemetry/sketch.hpp"

namespace sf::dpu {

class TierPlacer {
 public:
  struct Config {
    /// Per-sketch elephant tracker shape.
    telemetry::HeavyHitterTracker::Config tracker;
    /// Interval decay factor for the sketches (see CountMinSketch::decay).
    double decay = 0.5;
    /// Minimum decayed rate estimate (pps) for promotion into the DPU.
    std::uint64_t promote_min_pps = 1000;
    /// Promotion budget per interval — models the DPU's bounded update
    /// channel (a real NIC programs tens of entries per ms, not millions).
    std::size_t max_promote_per_interval = 64;
    /// Demote a placed flow after this many consecutive intervals below
    /// promote_min_pps.
    unsigned demote_after_idle = 2;
  };

  struct ApplyResult {
    std::size_t promoted = 0;
    std::size_t demoted = 0;
    /// Promotions refused by the install callback (table full).
    std::size_t refused = 0;
  };

  /// True when `key` should be installed on `node` (the callback did the
  /// install and it succeeded); false leaves the flow unplaced.
  using InstallFn =
      std::function<bool(const telemetry::FlowKey& key, std::size_t node)>;
  using RemoveFn =
      std::function<void(const telemetry::FlowKey& key, std::size_t node)>;

  /// `shards` fixes how many sketches the flows spread over (the region
  /// passes its interval engine's shard count); `nodes` is the DPU count.
  TierPlacer(Config config, std::size_t shards, std::size_t nodes);

  std::size_t nodes() const { return nodes_; }

  /// Interval start: decays every sketch so estimates track recent rate.
  void begin_interval();

  /// Feeds one software-tier flow's interval packet rate into the sketch
  /// that owns its tenant.
  void observe(const telemetry::FlowKey& key, std::uint64_t pps);

  /// Sequential reduce-phase pass: demote idle placed flows, then promote
  /// the heaviest unplaced candidates (up to the per-interval budget).
  ApplyResult apply(const InstallFn& install, const RemoveFn& remove);

  /// DPU node a flow is currently placed on, if any (functional-path
  /// classification asks this per packet).
  std::optional<std::size_t> placement(const telemetry::FlowKey& key) const;

  std::size_t placed_count() const { return placements_.size(); }
  std::size_t placed_on(std::size_t node) const;

  /// Drops every placement on `node` (DPU failure: the table is gone, so
  /// the placer must forget too or it would never re-promote). Returns
  /// how many placements were dropped.
  std::size_t evict_node(std::size_t node);

  /// Drops one tenant's placements (controller mutation mirrored to the
  /// DPU evicted its flows). Returns how many were dropped.
  std::size_t evict_vni(net::Vni vni);

  const Config& config() const { return config_; }

 private:
  using FlowId = std::pair<net::Vni, net::FiveTuple>;

  struct Placement {
    std::size_t node = 0;
    /// Consecutive intervals with estimate < promote_min_pps.
    unsigned idle_intervals = 0;
  };

  telemetry::HeavyHitterTracker& tracker_for(net::Vni vni);

  Config config_;
  std::size_t nodes_;
  std::vector<telemetry::HeavyHitterTracker> trackers_;  // one per shard
  std::map<FlowId, Placement> placements_;  // ordered: deterministic apply
};

}  // namespace sf::dpu

#include "asic/placement.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sf::asic {
namespace {

std::size_t clamped_add(std::size_t base, std::int64_t delta) {
  if (delta >= 0) return base + static_cast<std::size_t>(delta);
  const std::size_t drop = static_cast<std::size_t>(-delta);
  return drop >= base ? 0 : base - drop;
}

std::size_t abs_size(std::int64_t v) {
  return static_cast<std::size_t>(v < 0 ? -v : v);
}

}  // namespace

// ---- WorkloadDelta ---------------------------------------------------------

bool WorkloadDelta::empty() const { return magnitude() == 0; }

std::size_t WorkloadDelta::magnitude() const {
  return abs_size(vxlan_routes_v4) + abs_size(vxlan_routes_v6) +
         abs_size(vm_maps_v4) + abs_size(vm_maps_v6) +
         abs_size(digest_conflicts) + abs_size(acl_rules) +
         abs_size(meters) + abs_size(counters) + abs_size(steering_entries);
}

WorkloadDelta& WorkloadDelta::operator+=(const WorkloadDelta& other) {
  vxlan_routes_v4 += other.vxlan_routes_v4;
  vxlan_routes_v6 += other.vxlan_routes_v6;
  vm_maps_v4 += other.vm_maps_v4;
  vm_maps_v6 += other.vm_maps_v6;
  digest_conflicts += other.digest_conflicts;
  acl_rules += other.acl_rules;
  meters += other.meters;
  counters += other.counters;
  steering_entries += other.steering_entries;
  return *this;
}

GatewayWorkload WorkloadDelta::applied_to(GatewayWorkload base) const {
  base.vxlan_routes_v4 = clamped_add(base.vxlan_routes_v4, vxlan_routes_v4);
  base.vxlan_routes_v6 = clamped_add(base.vxlan_routes_v6, vxlan_routes_v6);
  base.vm_maps_v4 = clamped_add(base.vm_maps_v4, vm_maps_v4);
  base.vm_maps_v6 = clamped_add(base.vm_maps_v6, vm_maps_v6);
  base.digest_conflicts = clamped_add(base.digest_conflicts, digest_conflicts);
  base.acl_rules = clamped_add(base.acl_rules, acl_rules);
  base.meters = clamped_add(base.meters, meters);
  base.counters = clamped_add(base.counters, counters);
  base.steering_entries =
      clamped_add(base.steering_entries, steering_entries);
  return base;
}

// ---- Placement: read side --------------------------------------------------

std::optional<std::size_t> Placement::table_index(
    std::string_view name) const {
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].demand.name == name) return i;
  }
  return std::nullopt;
}

std::size_t Placement::sharded_units(std::size_t table,
                                     MemoryKind kind) const {
  return kind == MemoryKind::kSram ? tables_[table].sram_units
                                   : tables_[table].tcam_units;
}

std::vector<Placement::Segment> Placement::segments(std::size_t table,
                                                    std::size_t path,
                                                    MemoryKind kind) const {
  std::vector<Segment> merged;
  for (const Extent& extent : chain(table, path, kind).extents) {
    if (!merged.empty() && merged.back().pipe == extent.pipeline) {
      merged.back().units += extent.units;
    } else {
      merged.push_back(Segment{extent.pipeline, extent.units});
    }
  }
  return merged;
}

std::size_t Placement::placed_units(std::size_t table, std::size_t path,
                                    MemoryKind kind) const {
  return chain(table, path, kind).placed;
}

std::size_t Placement::unplaced_units(std::size_t table, std::size_t path,
                                      MemoryKind kind) const {
  return chain(table, path, kind).unplaced;
}

std::optional<unsigned> Placement::locate_unit(std::size_t table,
                                               std::size_t path,
                                               MemoryKind kind,
                                               std::size_t unit) const {
  const KindChain& c = chain(table, path, kind);
  if (unit >= c.placed) return std::nullopt;  // unplaced (or out of bill)
  std::size_t offset = 0;
  for (const Extent& extent : c.extents) {
    if (unit < offset + extent.units) return extent.pipeline;
    offset += extent.units;
  }
  return std::nullopt;
}

std::size_t Placement::pipe_units(unsigned pipe, MemoryKind kind) const {
  return kind == MemoryKind::kSram ? sram_demand_[pipe] : tcam_demand_[pipe];
}

std::size_t Placement::spill_segment_count() const {
  std::size_t count = 0;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    for (std::size_t path = 0; path < paths_.size(); ++path) {
      for (MemoryKind kind : {MemoryKind::kSram, MemoryKind::kTcam}) {
        const std::size_t segs = segments(t, path, kind).size();
        if (segs > 1) count += segs - 1;
      }
    }
  }
  return count;
}

OccupancyReport Placement::report() const {
  OccupancyReport report;
  report.demands.reserve(tables_.size());
  for (const PlacedTable& table : tables_) {
    report.demands.push_back(table.demand);
  }
  report.pipes.resize(chip_.pipelines);
  report.paths.resize(paths_.size());

  // Every path carries the same sharded bill sum (replicated or 1/paths
  // shards of each table) — identical to the accumulation place() does.
  std::size_t path_sram = 0;
  std::size_t path_tcam = 0;
  for (const PlacedTable& table : tables_) {
    path_sram += table.sram_units;
    path_tcam += table.tcam_units;
  }
  for (std::size_t path_index = 0; path_index < paths_.size(); ++path_index) {
    const double path_capacity_scale =
        static_cast<double>(paths_[path_index].size());
    report.paths[path_index].sram =
        static_cast<double>(path_sram) /
        (path_capacity_scale *
         static_cast<double>(chip_.sram_words_per_pipeline()));
    report.paths[path_index].tcam =
        static_cast<double>(path_tcam) /
        (path_capacity_scale *
         static_cast<double>(chip_.tcam_slices_per_pipeline()));
    report.sram_path_worst =
        std::max(report.sram_path_worst, report.paths[path_index].sram);
    report.tcam_path_worst =
        std::max(report.tcam_path_worst, report.paths[path_index].tcam);
  }
  for (unsigned p = 0; p < chip_.pipelines; ++p) {
    report.pipes[p].sram =
        static_cast<double>(sram_demand_[p]) /
        static_cast<double>(chip_.sram_words_per_pipeline());
    report.pipes[p].tcam =
        static_cast<double>(tcam_demand_[p]) /
        static_cast<double>(chip_.tcam_slices_per_pipeline());
    report.sram_worst = std::max(report.sram_worst, report.pipes[p].sram);
    report.tcam_worst = std::max(report.tcam_worst, report.pipes[p].tcam);
  }
  report.feasible = feasible_;
  return report;
}

// ---- Placement: chain geometry ---------------------------------------------

unsigned Placement::preferred_pipe(std::size_t path_index,
                                   PathSlot slot) const {
  // The slot -> pipe rule: a back slot prefers the path's second pipe,
  // every other slot (and every one-pipe path) its first.
  const std::vector<unsigned>& pipes = paths_[path_index];
  const bool back_slot =
      slot == PathSlot::kBackEgress || slot == PathSlot::kBackIngress;
  return pipes[back_slot && pipes.size() > 1 ? 1 : 0];
}

std::vector<unsigned> Placement::chain_pipes(std::size_t path_index,
                                             PathSlot slot) const {
  std::vector<unsigned> order;
  order.reserve(config_.cross_path_spill ? paths_.size() * 2 : 2);
  const auto push_path = [&](std::size_t path) {
    const unsigned preferred = preferred_pipe(path, slot);
    order.push_back(preferred);
    for (const unsigned pipe : paths_[path]) {
      if (pipe != preferred) order.push_back(pipe);  // the sibling
    }
  };
  push_path(path_index);
  if (config_.cross_path_spill) {
    for (std::size_t offset = 1; offset < paths_.size(); ++offset) {
      push_path((path_index + offset) % paths_.size());
    }
  }
  return order;
}

// ---- Placement: incremental mutation ---------------------------------------

void Placement::grow_on_pipe(std::size_t table, std::size_t path,
                             MemoryKind kind, unsigned pipe,
                             std::size_t units) {
  if (units == 0) return;
  KindChain& c = chain(table, path, kind);
  auto extents =
      memory_->allocate(pipe, kind, units, tables_[table].demand.name);
  if (!extents) return;  // caller sized by free_units; defensive
  if (!c.extents.empty() && c.extents.back().pipeline != pipe) {
    ++stats_.fragmentation_events;
  }
  for (Extent& extent : *extents) c.extents.push_back(extent);
  c.placed += units;
  auto& demand_vec = kind == MemoryKind::kSram ? sram_demand_ : tcam_demand_;
  demand_vec[pipe] += units;
  stats_.moved_units += units;
}

std::size_t Placement::shrink_on_pipe(std::size_t table, std::size_t path,
                                      MemoryKind kind, unsigned pipe,
                                      std::size_t units) {
  KindChain& c = chain(table, path, kind);
  auto& demand_vec = kind == MemoryKind::kSram ? sram_demand_ : tcam_demand_;
  std::size_t remaining = units;
  for (std::size_t i = c.extents.size(); i > 0 && remaining > 0; --i) {
    Extent& extent = c.extents[i - 1];
    if (extent.pipeline != pipe) continue;
    const std::size_t take = std::min(extent.units, remaining);
    memory_->release(Extent{extent.pipeline, extent.stage, kind, take});
    extent.units -= take;
    remaining -= take;
    c.placed -= take;
    demand_vec[pipe] -= take;
    stats_.moved_units += take;
    if (extent.units == 0) {
      const bool was_spill = extent.pipeline != preferred_pipe(
          path, tables_[table].demand.slot);
      c.extents.erase(c.extents.begin() +
                      static_cast<std::ptrdiff_t>(i - 1));
      if (was_spill && !c.extents.empty()) ++stats_.fragmentation_events;
    }
  }
  return units - remaining;
}

bool Placement::adjust_chain(std::size_t table, std::size_t path,
                             MemoryKind kind, std::size_t target) {
  KindChain& c = chain(table, path, kind);
  if (c.placed + c.unplaced == target) return true;
  const PathSlot slot = tables_[table].demand.slot;
  const unsigned preferred = preferred_pipe(path, slot);
  auto& demand_vec = kind == MemoryKind::kSram ? sram_demand_ : tcam_demand_;

  // Unplaced overflow is re-derived below; uncharge the old amount.
  demand_vec[preferred] -= c.unplaced;
  c.unplaced = 0;

  if (c.placed > target) {
    // Shrink from the chain's tail: newest spill goes first.
    std::size_t drop = c.placed - target;
    while (drop > 0 && !c.extents.empty()) {
      const unsigned pipe = c.extents.back().pipeline;
      drop -= shrink_on_pipe(table, path, kind, pipe, drop);
    }
  } else if (target > c.placed) {
    // Grow at the chain's tail and keep spilling along the chain order;
    // earlier pipes are not revisited (that room is the fragmentation the
    // parity gate and replace_fragmentation_limit account for).
    const std::vector<unsigned> order = chain_pipes(path, slot);
    std::size_t start = 0;
    if (!c.extents.empty()) {
      const unsigned last_pipe = c.extents.back().pipeline;
      const auto it = std::find(order.begin(), order.end(), last_pipe);
      if (it == order.end()) return false;  // chain from a foreign config
      start = static_cast<std::size_t>(it - order.begin());
    }
    std::size_t need = target - c.placed;
    for (std::size_t i = start; i < order.size() && need > 0; ++i) {
      const std::size_t take =
          std::min(need, memory_->free_units(order[i], kind));
      if (take == 0) continue;
      grow_on_pipe(table, path, kind, order[i], take);
      need -= take;
    }
    c.unplaced = need;
  }
  demand_vec[preferred] += c.unplaced;
  return true;
}

bool Placement::adjust_balanced(std::size_t table, std::size_t path,
                                MemoryKind kind, std::size_t target) {
  const std::vector<unsigned>& pipes = paths_[path];
  if (pipes.size() < 2) return adjust_chain(table, path, kind, target);
  KindChain& c = chain(table, path, kind);
  if (c.placed + c.unplaced == target) return true;
  const unsigned first = pipes[0];
  const unsigned second = pipes[1];
  std::size_t cur_first = 0;
  std::size_t cur_second = 0;
  for (const Extent& extent : c.extents) {
    if (extent.pipeline == first) {
      cur_first += extent.units;
    } else if (extent.pipeline == second) {
      cur_second += extent.units;
    } else {
      return false;  // cross-path spill present; let the shadow re-balance
    }
  }
  auto& demand_vec = kind == MemoryKind::kSram ? sram_demand_ : tcam_demand_;
  demand_vec[first] -= c.unplaced;
  c.unplaced = 0;

  // Fresh targets: half/half, odd unit on the first pipe.
  const std::size_t want_first = (target + 1) / 2;
  const std::size_t want_second = target - want_first;
  if (cur_first > want_first) {
    shrink_on_pipe(table, path, kind, first, cur_first - want_first);
    cur_first = want_first;
  }
  if (cur_second > want_second) {
    shrink_on_pipe(table, path, kind, second, cur_second - want_second);
    cur_second = want_second;
  }
  std::size_t need = (want_first - cur_first) + (want_second - cur_second);
  // Grow toward the targets; overflow follows the fresh order (first pipe,
  // second pipe, first again, then cross-path).
  if (need > 0) {
    const std::size_t take_first = std::min(
        want_first - cur_first, memory_->free_units(first, kind));
    grow_on_pipe(table, path, kind, first, take_first);
    need -= take_first;
    const std::size_t take_second =
        std::min(need, memory_->free_units(second, kind));
    grow_on_pipe(table, path, kind, second, take_second);
    need -= take_second;
    if (need > 0) {
      const std::size_t take_back =
          std::min(need, memory_->free_units(first, kind));
      grow_on_pipe(table, path, kind, first, take_back);
      need -= take_back;
    }
    if (need > 0 && config_.cross_path_spill) {
      const std::vector<unsigned> order = chain_pipes(path, PathSlot::kBalanced);
      for (std::size_t i = 2; i < order.size() && need > 0; ++i) {
        const std::size_t take =
            std::min(need, memory_->free_units(order[i], kind));
        if (take == 0) continue;
        grow_on_pipe(table, path, kind, order[i], take);
        need -= take;
      }
    }
    c.unplaced = need;
  }
  demand_vec[first] += c.unplaced;
  return true;
}

bool Placement::adjust(std::size_t table, std::size_t path, MemoryKind kind,
                       std::size_t target) {
  return tables_[table].demand.slot == PathSlot::kBalanced
             ? adjust_balanced(table, path, kind, target)
             : adjust_chain(table, path, kind, target);
}

void Placement::recount_feasible() {
  feasible_ = true;
  for (const PlacedTable& table : tables_) {
    for (const KindChain& c : table.sram) {
      if (c.unplaced > 0) feasible_ = false;
    }
    for (const KindChain& c : table.tcam) {
      if (c.unplaced > 0) feasible_ = false;
    }
  }
}

bool Placement::accounting_matches(const Placement& other) const {
  return sram_demand_ == other.sram_demand_ &&
         tcam_demand_ == other.tcam_demand_ && feasible_ == other.feasible_;
}

bool Placement::apply_demands(const std::vector<TableDemand>& next) {
  const std::size_t path_count = paths_.size();

  struct Target {
    std::optional<std::size_t> ours;  // existing table index
    std::size_t sram = 0;             // sharded per-path bills
    std::size_t tcam = 0;
  };
  std::vector<Target> targets(next.size());
  std::vector<char> keep(tables_.size(), 0);
  for (std::size_t i = 0; i < next.size(); ++i) {
    const TableDemand& d = next[i];
    Target& t = targets[i];
    t.ours = table_index(d.name);
    if (t.ours) {
      const TableDemand& old = tables_[*t.ours].demand;
      if (old.slot != d.slot || old.shardable != d.shardable) return false;
      keep[*t.ours] = 1;
    }
    t.sram = d.sram_words;
    t.tcam = d.tcam_slices;
    if (config_.split && d.shardable && path_count > 1) {
      t.sram = (t.sram + path_count - 1) / path_count;
      t.tcam = (t.tcam + path_count - 1) / path_count;
    }
  }

  // Pass 1 — shrink: removed tables to zero, shrunk tables to their new
  // bills. Freeing room first lets the grow pass land where a fresh
  // placement would.
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (keep[t]) continue;
    ++stats_.touched_tables;
    for (std::size_t path = 0; path < path_count; ++path) {
      if (!adjust(t, path, MemoryKind::kSram, 0)) return false;
      if (!adjust(t, path, MemoryKind::kTcam, 0)) return false;
    }
  }
  for (std::size_t i = 0; i < next.size(); ++i) {
    const Target& target = targets[i];
    if (!target.ours) continue;
    PlacedTable& table = tables_[*target.ours];
    const bool changed =
        table.sram_units != target.sram || table.tcam_units != target.tcam;
    if (changed) ++stats_.touched_tables;
    for (std::size_t path = 0; path < path_count; ++path) {
      if (target.sram < table.sram_units &&
          !adjust(*target.ours, path, MemoryKind::kSram, target.sram)) {
        return false;
      }
      if (target.tcam < table.tcam_units &&
          !adjust(*target.ours, path, MemoryKind::kTcam, target.tcam)) {
        return false;
      }
    }
  }

  // Pass 2 — grow existing tables and place brand-new ones.
  for (std::size_t i = 0; i < next.size(); ++i) {
    Target& target = targets[i];
    if (!target.ours) {
      PlacedTable fresh;
      fresh.demand = next[i];
      fresh.sram.resize(path_count);
      fresh.tcam.resize(path_count);
      tables_.push_back(std::move(fresh));
      target.ours = tables_.size() - 1;
      keep.push_back(1);
      ++stats_.touched_tables;
    }
    PlacedTable& table = tables_[*target.ours];
    for (std::size_t path = 0; path < path_count; ++path) {
      if (!adjust(*target.ours, path, MemoryKind::kSram, target.sram)) {
        return false;
      }
      if (!adjust(*target.ours, path, MemoryKind::kTcam, target.tcam)) {
        return false;
      }
    }
    table.demand = next[i];
    table.sram_units = target.sram;
    table.tcam_units = target.tcam;
  }

  // Rebuild the table list in the fresh demand order, dropping removals,
  // so report().demands matches a from-scratch placement.
  std::vector<PlacedTable> reordered;
  reordered.reserve(next.size());
  for (const Target& target : targets) {
    reordered.push_back(std::move(tables_[*target.ours]));
  }
  tables_ = std::move(reordered);

  recount_feasible();
  return true;
}

// ---- Placer: layout construction -------------------------------------------

Placement Placer::place_layout(const GatewayWorkload& workload,
                               const CompressionConfig& config) const {
  return place_layout(compute_demands(chip_, workload, config), config,
                      workload);
}

Placement Placer::place_layout(std::vector<TableDemand> demands,
                               const CompressionConfig& config,
                               const GatewayWorkload& workload) const {
  if (config.split && !config.fold) {
    throw std::invalid_argument(
        "table splitting between pipelines requires pipeline folding");
  }

  Placement out;
  out.chip_ = chip_;
  out.config_ = config;
  out.workload_ = workload;

  // Paths: folded -> {0,1} and {2,3}; unfolded -> each pipeline is an
  // independent gateway holding everything.
  if (config.fold) {
    for (unsigned p = 0; p + 1 < chip_.pipelines; p += 2) {
      out.paths_.push_back({p, p + 1});
    }
  } else {
    for (unsigned p = 0; p < chip_.pipelines; ++p) {
      out.paths_.push_back({p});
    }
  }
  const std::size_t path_count = out.paths_.size();

  out.memory_.emplace(chip_);
  out.memory_->set_track_allocations(false);
  out.sram_demand_.assign(chip_.pipelines, 0);
  out.tcam_demand_.assign(chip_.pipelines, 0);

  out.tables_.reserve(demands.size());
  for (TableDemand& demand : demands) {
    Placement::PlacedTable table;
    table.demand = std::move(demand);
    // Shard across paths under (b); otherwise every path replicates.
    table.sram_units = table.demand.sram_words;
    table.tcam_units = table.demand.tcam_slices;
    if (config.split && table.demand.shardable && path_count > 1) {
      table.sram_units = (table.sram_units + path_count - 1) / path_count;
      table.tcam_units = (table.tcam_units + path_count - 1) / path_count;
    }
    table.sram.resize(path_count);
    table.tcam.resize(path_count);
    out.tables_.push_back(std::move(table));
  }

  // A fresh layout grows every chain from empty, path-major in demand
  // order, along the same spill order a delta follows; its growth is not
  // delta churn, so the stats start clean.
  for (std::size_t path_index = 0; path_index < path_count; ++path_index) {
    for (std::size_t t = 0; t < out.tables_.size(); ++t) {
      for (const MemoryKind kind : {MemoryKind::kSram, MemoryKind::kTcam}) {
        out.adjust(t, path_index, kind, out.sharded_units(t, kind));
      }
    }
  }
  out.recount_feasible();
  out.stats_ = {};
  return out;
}

// ---- Placer: public wrappers and incremental re-placement ------------------

OccupancyReport Placer::evaluate(const GatewayWorkload& workload,
                                 const CompressionConfig& config) const {
  return place_layout(workload, config).report();
}

OccupancyReport Placer::place(std::vector<TableDemand> demands,
                              const CompressionConfig& config) const {
  // The workload stays at its default here — it is layout metadata only;
  // the demands carry the bill.
  return place_layout(std::move(demands), config, GatewayWorkload{}).report();
}

Placement Placer::replace(Placement base, const WorkloadDelta& delta) const {
  const GatewayWorkload next = delta.applied_to(base.workload());
  // A copy: `base` is moved into the incremental layout below.
  const CompressionConfig config = base.compression();
  std::vector<TableDemand> next_demands =
      compute_demands(chip_, next, config);

  // The shadow is what a from-scratch placement of the new workload looks
  // like — cheap (O(tables x paths)) because demands are already counted.
  // It is both the fallback layout and the parity oracle.
  Placement shadow = place_layout(std::move(next_demands), config, next);
  shadow.stats_ = base.stats_;
  const auto adopt_shadow = [&]() {
    shadow.stats_.fragmentation_events = 0;  // compacted
    ++shadow.stats_.full_recomputes;
    return std::move(shadow);
  };

  if (base.fragmentation_score() >= config.replace_fragmentation_limit) {
    return adopt_shadow();
  }

  Placement incremental = std::move(base);
  incremental.workload_ = next;
  std::vector<TableDemand> fresh_demands;
  fresh_demands.reserve(shadow.table_count());
  for (std::size_t i = 0; i < shadow.table_count(); ++i) {
    fresh_demands.push_back(shadow.demand(i));
  }
  if (incremental.apply_demands(fresh_demands) &&
      incremental.accounting_matches(shadow)) {
    ++incremental.stats_.delta_applies;
    return incremental;
  }
  return adopt_shadow();
}

}  // namespace sf::asic

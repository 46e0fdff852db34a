#include "cluster/controller.hpp"

#include <algorithm>

#include "guard/guard.hpp"
#include "sim/sim_clock.hpp"

namespace sf::cluster {

Controller::Controller(Config config)
    : config_(std::move(config)),
      registry_(std::make_unique<telemetry::Registry>()),
      journal_(std::make_unique<telemetry::EventJournal>(256)) {
  if (config_.max_clusters == 0) {
    throw std::invalid_argument("controller needs at least one cluster slot");
  }
  ctr_routes_added_ = &registry_->counter("controller.routes_added");
  ctr_routes_removed_ = &registry_->counter("controller.routes_removed");
  ctr_mappings_added_ = &registry_->counter("controller.mappings_added");
  ctr_mappings_removed_ = &registry_->counter("controller.mappings_removed");
  ctr_vpcs_admitted_ = &registry_->counter("controller.vpcs_admitted");
  ctr_admission_refused_ = &registry_->counter("controller.admission_refused");
  ctr_migrations_ = &registry_->counter("controller.migrations");
  ctr_clusters_opened_ = &registry_->counter("controller.clusters_opened");
  ctr_packets_ = &registry_->counter("controller.packets_steered");
  ctr_unknown_vni_ = &registry_->counter("controller.unknown_vni_drops");
  ctr_ops_rate_limited_ =
      &registry_->counter("controller.table_ops_rate_limited");
  ctr_ops_deferred_ = &registry_->counter("controller.table_ops_deferred");
  ctr_ops_replayed_ = &registry_->counter("controller.table_ops_replayed");
  op_tokens_ = static_cast<double>(config_.table_op_burst);
  retry_queue_ = std::make_unique<UpdateQueue>(*this, config_.retry);
  if (config_.admit_overflow) {
    ctr_overflow_admitted_ =
        &registry_->counter("controller.overflow_vpcs_admitted");
  }
  if (config_.placement_enabled) {
    placement_engine_ =
        std::make_unique<asic::PlacementEngine>(config_.placement);
  }
  if (config_.breaker.trip_after > 0 && guard::guard_enabled()) {
    breaker_ = std::make_unique<guard::CircuitBreaker>(config_.breaker);
    ctr_breaker_trips_ = &registry_->counter("controller.breaker_trips");
    ctr_breaker_reopens_ = &registry_->counter("controller.breaker_reopens");
    ctr_breaker_closes_ = &registry_->counter("controller.breaker_closes");
    ctr_breaker_short_circuited_ =
        &registry_->counter("controller.breaker_short_circuited");
  }
  const std::size_t prebuilt =
      std::min(config_.initial_clusters, config_.max_clusters);
  for (std::size_t i = 0; i < prebuilt; ++i) {
    XgwHCluster::Config cfg = config_.cluster_template;
    cfg.cluster_id = static_cast<std::uint32_t>(clusters_.size());
    clusters_.push_back(std::make_unique<XgwHCluster>(cfg));
    journal_->record("provisioning", "opened cluster " +
                                         std::to_string(cfg.cluster_id) +
                                         " (prebuilt)");
  }
  ctr_clusters_opened_->add(prebuilt);
}

void Controller::mirror(const TableOp& op) {
  if (mirror_) mirror_(op);
}

std::size_t Controller::advance_clock(double now) {
  clock_now_ = std::max(clock_now_, now);
  // While the breaker is plain-open the channel is not worth trying:
  // retries stay parked (half-open lets the head op through as the probe).
  if (breaker_ && breaker_->state(clock_now_) ==
                      guard::CircuitBreaker::State::kOpen) {
    return 0;
  }
  const std::size_t replayed = retry_queue_->advance(clock_now_);
  if (replayed > 0) ctr_ops_replayed_->add(replayed);
  return replayed;
}

dataplane::TableOpStatus Controller::push_op(const TableOp& op) {
  const std::size_t pending_before = retry_queue_->pending();
  dataplane::TableOpStatus status;
  if (breaker_ && !breaker_->allow(clock_now_)) {
    // Short-circuit: park without burning a channel attempt. Order is
    // kept (the queue is strict FIFO) and nothing is lost.
    breaker_->note_short_circuit();
    ctr_breaker_short_circuited_->add();
    status = retry_queue_->defer(op, clock_now_);
  } else {
    status = retry_queue_->submit(op, clock_now_);
  }
  if (retry_queue_->pending() > pending_before) ctr_ops_deferred_->add();
  return status;
}

void Controller::breaker_failure() {
  if (!breaker_) return;
  const guard::CircuitBreaker::Stats before = breaker_->stats();
  breaker_->record_failure(clock_now_);
  const guard::CircuitBreaker::Stats& after = breaker_->stats();
  if (after.trips > before.trips) {
    ctr_breaker_trips_->add();
    journal_->record("breaker", "update-channel breaker tripped open",
                     clock_now_);
  }
  if (after.reopens > before.reopens) {
    ctr_breaker_reopens_->add();
    journal_->record("breaker",
                     "half-open probe refused; breaker re-opened",
                     clock_now_);
  }
}

void Controller::breaker_success() {
  if (!breaker_) return;
  const guard::CircuitBreaker::Stats before = breaker_->stats();
  breaker_->record_success(clock_now_);
  if (breaker_->stats().closes > before.closes) {
    ctr_breaker_closes_->add();
    journal_->record("breaker",
                     "half-open probe succeeded; breaker closed",
                     clock_now_);
  }
}

void Controller::set_update_channel_up(bool up) {
  if (up == update_channel_up_) return;
  update_channel_up_ = up;
  retry_queue_->set_channel_up(up);
  journal_->record("update-channel",
                   up ? "update channel restored; draining deferred ops"
                      : "update channel down; pushes will be deferred",
                   clock_now_);
}

void Controller::set_update_channel_degraded(bool degraded) {
  if (degraded == update_channel_degraded_) return;
  update_channel_degraded_ = degraded;
  journal_->record("update-channel",
                   degraded ? "update channel browned out; attempts refused"
                            : "update channel brownout cleared",
                   clock_now_);
}

bool Controller::take_op_token() {
  if (!update_channel_up_ || update_channel_degraded_) {
    ctr_ops_rate_limited_->add();
    breaker_failure();
    return false;
  }
  if (config_.table_op_rate_limit <= 0) {
    breaker_success();
    return true;
  }
  op_tokens_ = std::min(
      op_tokens_ + sim::elapsed_s(clock_now_, op_tokens_time_) *
                       config_.table_op_rate_limit,
      static_cast<double>(config_.table_op_burst));
  op_tokens_time_ = clock_now_;
  if (op_tokens_ < 1.0) {
    ctr_ops_rate_limited_->add();
    breaker_failure();
    return false;
  }
  op_tokens_ -= 1.0;
  breaker_success();
  return true;
}

std::optional<std::uint32_t> Controller::assign_cluster() {
  // Least-loaded (by route count) cluster below the water level.
  std::optional<std::uint32_t> best;
  std::size_t best_routes = 0;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const std::size_t routes = clusters_[i]->route_count();
    if (routes >= config_.routes_water_level) continue;
    if (clusters_[i]->mapping_count() >= config_.mappings_water_level) {
      continue;
    }
    if (!best || routes < best_routes) {
      best = static_cast<std::uint32_t>(i);
      best_routes = routes;
    }
  }
  if (best) return best;

  if (clusters_.size() >= config_.max_clusters) {
    alerts_.push_back(
        "admission refused: all clusters at water level, region full");
    ctr_admission_refused_->add();
    journal_->record("alert",
                     "admission refused: all clusters at water level");
    return std::nullopt;
  }
  XgwHCluster::Config cfg = config_.cluster_template;
  cfg.cluster_id = static_cast<std::uint32_t>(clusters_.size());
  clusters_.push_back(std::make_unique<XgwHCluster>(cfg));
  alerts_.push_back("opened cluster " + std::to_string(cfg.cluster_id));
  ctr_clusters_opened_->add();
  journal_->record("provisioning",
                   "opened cluster " + std::to_string(cfg.cluster_id));
  return cfg.cluster_id;
}

bool Controller::add_vpc(const workload::VpcRecord& vpc) {
  if (vpcs_.contains(vpc.vni)) return false;
  // Peered VPCs must share a cluster: the peer re-lookup resolves in the
  // same device's tables, and the VNI director steers by the *arriving*
  // VNI. The peer group is therefore the real split granularity (§4.3
  // notes the VPC is the smallest unit; peering glues VPCs together).
  std::optional<std::uint32_t> cluster_id;
  for (net::Vni peer : vpc.peers) {
    if (auto assigned = director_.cluster_for(peer)) {
      cluster_id = assigned;
      break;
    }
    // Peers already living in the software tier pull the whole group
    // down with them — co-location holds across tiers too.
    if (is_overflow(peer)) {
      cluster_id = kSoftwareTier;
      break;
    }
  }
  if (!cluster_id) cluster_id = assign_cluster();
  if (!cluster_id && config_.admit_overflow) cluster_id = kSoftwareTier;
  if (!cluster_id) return false;

  VpcState state;
  state.cluster_id = *cluster_id;
  // Software-tier VPCs never reach the VNI director: XGW-H has no tables
  // for them, so steering a packet at a cluster would only burn a drop.
  if (*cluster_id != kSoftwareTier) {
    director_.assign(vpc.vni, *cluster_id);
  } else {
    ++overflow_vpcs_;
    ctr_overflow_admitted_->add();
    journal_->record("provisioning",
                     "VNI " + std::to_string(vpc.vni) +
                         " admitted into the software tier (overflow)");
  }
  vpcs_.emplace(vpc.vni, std::move(state));
  ctr_vpcs_admitted_->add();

  // Reliable pushes: a rate-limited burst defers onto the retry queue
  // instead of silently losing entries — before this, an op rejected by
  // the update-channel budget simply never reached the devices and the
  // VPC was admitted with holes in its tables.
  for (const workload::RouteRecord& route : vpc.routes) {
    push_op(TableOp{TableOp::Kind::kAddRoute, vpc.vni, route.prefix,
                    route.action, {}, {}});
  }
  for (const workload::VmRecord& vm : vpc.vms) {
    push_op(TableOp{TableOp::Kind::kAddMapping, vpc.vni, {}, {},
                    tables::VmNcKey{vpc.vni, vm.ip},
                    tables::VmNcAction{vm.nc_ip}});
  }
  return true;
}

std::size_t Controller::install_topology(
    const workload::RegionTopology& region) {
  std::size_t admitted = 0;
  for (std::size_t index : admission_order(region)) {
    if (add_vpc(region.vpcs[index])) ++admitted;
  }
  return admitted;
}

std::vector<std::size_t> Controller::admission_order(
    const workload::RegionTopology& region) {
  std::unordered_map<net::Vni, std::size_t> index_of;
  for (std::size_t i = 0; i < region.vpcs.size(); ++i) {
    index_of[region.vpcs[i].vni] = i;
  }
  std::vector<bool> visited(region.vpcs.size(), false);
  std::vector<std::size_t> order;
  for (std::size_t start = 0; start < region.vpcs.size(); ++start) {
    if (visited[start]) continue;
    const std::size_t first = order.size();
    order.push_back(start);
    visited[start] = true;
    for (std::size_t i = first; i < order.size(); ++i) {
      for (net::Vni peer : region.vpcs[order[i]].peers) {
        auto it = index_of.find(peer);
        if (it != index_of.end() && !visited[it->second]) {
          visited[it->second] = true;
          order.push_back(it->second);
        }
      }
    }
  }
  return order;
}

dataplane::BatchResult Controller::apply(const dataplane::TableOpBatch& batch) {
  dataplane::BatchResult result;
  for (const TableOp& op : batch.ops) {
    result.record(apply_one(op));
  }
  // One incremental re-placement per batch, not per op: the whole batch's
  // churn lands as a single WorkloadDelta.
  flush_placement_delta();
  return result;
}

void Controller::flush_placement_delta() {
  if (!placement_engine_ || pending_placement_delta_.empty()) return;
  placement_engine_->apply(pending_placement_delta_);
  pending_placement_delta_ = {};
}

dataplane::TableOpStatus Controller::apply_one(const TableOp& op) {
  switch (op.kind) {
    case TableOp::Kind::kAddRoute:
      return apply_install_route(op.vni, op.prefix, op.route_action);
    case TableOp::Kind::kDelRoute:
      return apply_remove_route(op.vni, op.prefix);
    case TableOp::Kind::kAddMapping:
      return apply_install_mapping(op.mapping_key, op.mapping_action);
    case TableOp::Kind::kDelMapping:
      return apply_remove_mapping(op.mapping_key);
  }
  return dataplane::TableOpStatus::kNotFound;
}

std::size_t Controller::drain_mid_interval(double start, double length,
                                           std::size_t slices) {
  if (slices == 0) return advance_clock(start + length);
  std::size_t replayed = 0;
  for (std::size_t s = 1; s <= slices; ++s) {
    const double t =
        start + length * (static_cast<double>(s) /
                          static_cast<double>(slices));
    replayed += advance_clock(t);
  }
  return replayed;
}

dataplane::TableOpStatus Controller::apply_install_route(
    net::Vni vni, const net::IpPrefix& prefix,
    tables::VxlanRouteAction action) {
  auto it = vpcs_.find(vni);
  if (it == vpcs_.end()) return dataplane::TableOpStatus::kNotFound;
  if (!placement_live(it->second.cluster_id)) {
    return dataplane::TableOpStatus::kUnknownTarget;
  }
  const bool software_tier = it->second.cluster_id == kSoftwareTier;
  // Software-tier VPCs program no device: their desired state only needs
  // to reach the mirror (x86 + DPU hold the complete tables), so the
  // device update channel is never consumed.
  if (!software_tier && !take_op_token()) {
    return dataplane::TableOpStatus::kRateLimited;
  }
  const dataplane::TableOpStatus status =
      software_tier
          ? dataplane::TableOpStatus::kOk
          : programmer(it->second.cluster_id)
                .install_route(vni, prefix, action);
  auto& routes = it->second.routes;
  auto existing = std::find_if(routes.begin(), routes.end(), [&](auto& r) {
    return r.first == prefix;
  });
  if (existing == routes.end()) {
    routes.push_back({prefix, action});
    // New hardware-tier entry: placement demand grows (replaced actions
    // occupy the same slot; software-tier entries occupy no ASIC memory).
    if (placement_engine_ && !software_tier) {
      if (prefix.family() == net::IpFamily::kV4) {
        ++pending_placement_delta_.vxlan_routes_v4;
      } else {
        ++pending_placement_delta_.vxlan_routes_v6;
      }
    }
  } else {
    existing->second = action;
  }
  mirror(TableOp{TableOp::Kind::kAddRoute, vni, prefix, action, {}, {}});
  ctr_routes_added_->add();

  if (!software_tier &&
      clusters_[it->second.cluster_id]->route_count() ==
          config_.routes_water_level) {
    alerts_.push_back("cluster " + std::to_string(it->second.cluster_id) +
                      " reached its route water level; sales closed");
    journal_->record("water-level",
                     "cluster " + std::to_string(it->second.cluster_id) +
                         " reached its route water level; sales closed");
  }
  return status;
}

dataplane::TableOpStatus Controller::apply_remove_route(
    net::Vni vni, const net::IpPrefix& prefix) {
  auto it = vpcs_.find(vni);
  if (it == vpcs_.end()) return dataplane::TableOpStatus::kNotFound;
  // Dangling placements fail typed and loud *before* any desired-state
  // mutation — the old per-method surface silently "succeeded" here,
  // desyncing the mirror from the devices.
  if (!placement_live(it->second.cluster_id)) {
    return dataplane::TableOpStatus::kUnknownTarget;
  }
  auto& routes = it->second.routes;
  auto existing = std::find_if(routes.begin(), routes.end(), [&](auto& r) {
    return r.first == prefix;
  });
  if (existing == routes.end()) return dataplane::TableOpStatus::kNotFound;
  const bool software_tier = it->second.cluster_id == kSoftwareTier;
  if (!software_tier && !take_op_token()) {
    return dataplane::TableOpStatus::kRateLimited;
  }
  routes.erase(existing);
  if (placement_engine_ && !software_tier) {
    if (prefix.family() == net::IpFamily::kV4) {
      --pending_placement_delta_.vxlan_routes_v4;
    } else {
      --pending_placement_delta_.vxlan_routes_v6;
    }
  }
  const dataplane::TableOpStatus status =
      software_tier
          ? dataplane::TableOpStatus::kOk
          : programmer(it->second.cluster_id).remove_route(vni, prefix);
  mirror(TableOp{TableOp::Kind::kDelRoute, vni, prefix, {}, {}, {}});
  ctr_routes_removed_->add();
  return status;
}

dataplane::TableOpStatus Controller::apply_install_mapping(
    const tables::VmNcKey& key, tables::VmNcAction action) {
  auto it = vpcs_.find(key.vni);
  if (it == vpcs_.end()) return dataplane::TableOpStatus::kNotFound;
  if (!placement_live(it->second.cluster_id)) {
    return dataplane::TableOpStatus::kUnknownTarget;
  }
  const bool software_tier = it->second.cluster_id == kSoftwareTier;
  if (!software_tier && !take_op_token()) {
    return dataplane::TableOpStatus::kRateLimited;
  }
  const dataplane::TableOpStatus status =
      software_tier
          ? dataplane::TableOpStatus::kOk
          : programmer(it->second.cluster_id).install_mapping(key, action);
  auto& mappings = it->second.mappings;
  auto existing =
      std::find_if(mappings.begin(), mappings.end(), [&](auto& m) {
        return m.first == key;
      });
  if (existing == mappings.end()) {
    mappings.push_back({key, action});
    if (placement_engine_ && !software_tier) {
      if (key.vm_ip.family() == net::IpFamily::kV4) {
        ++pending_placement_delta_.vm_maps_v4;
      } else {
        ++pending_placement_delta_.vm_maps_v6;
      }
    }
  } else {
    existing->second = action;
  }
  mirror(TableOp{TableOp::Kind::kAddMapping, key.vni, {}, {}, key, action});
  ctr_mappings_added_->add();
  return status;
}

dataplane::TableOpStatus Controller::apply_remove_mapping(
    const tables::VmNcKey& key) {
  auto it = vpcs_.find(key.vni);
  if (it == vpcs_.end()) return dataplane::TableOpStatus::kNotFound;
  if (!placement_live(it->second.cluster_id)) {
    return dataplane::TableOpStatus::kUnknownTarget;
  }
  auto& mappings = it->second.mappings;
  auto existing =
      std::find_if(mappings.begin(), mappings.end(), [&](auto& m) {
        return m.first == key;
      });
  if (existing == mappings.end()) return dataplane::TableOpStatus::kNotFound;
  const bool software_tier = it->second.cluster_id == kSoftwareTier;
  if (!software_tier && !take_op_token()) {
    return dataplane::TableOpStatus::kRateLimited;
  }
  mappings.erase(existing);
  if (placement_engine_ && !software_tier) {
    if (key.vm_ip.family() == net::IpFamily::kV4) {
      --pending_placement_delta_.vm_maps_v4;
    } else {
      --pending_placement_delta_.vm_maps_v6;
    }
  }
  const dataplane::TableOpStatus status =
      software_tier
          ? dataplane::TableOpStatus::kOk
          : programmer(it->second.cluster_id).remove_mapping(key);
  mirror(TableOp{TableOp::Kind::kDelMapping, key.vni, {}, {}, key, {}});
  ctr_mappings_removed_->add();
  return status;
}

bool Controller::migrate_vpc(net::Vni vni, std::uint32_t target_cluster) {
  if (target_cluster >= clusters_.size()) return false;
  auto it = vpcs_.find(vni);
  if (it == vpcs_.end()) return false;
  // Software-tier VPCs have no device entries to move; promoting one into
  // hardware is a (future) re-admission, not a migration.
  if (it->second.cluster_id == kSoftwareTier) return false;
  // No early-out on cluster_id == target: the member loop below skips
  // already-placed members, and walking the group anyway heals any
  // co-location drift defensively.

  // Collect the whole peer group: peers must stay co-located (see
  // add_vpc). The group is the set of VPCs reachable through Peer routes
  // in the desired state.
  std::vector<net::Vni> group{vni};
  for (std::size_t i = 0; i < group.size(); ++i) {
    const VpcState& state = vpcs_.at(group[i]);
    for (const auto& [prefix, action] : state.routes) {
      if (action.scope != tables::RouteScope::kPeer) continue;
      if (std::find(group.begin(), group.end(), action.next_hop_vni) ==
          group.end()) {
        if (vpcs_.contains(action.next_hop_vni)) {
          group.push_back(action.next_hop_vni);
        }
      }
    }
  }

  for (net::Vni member : group) {
    VpcState& state = vpcs_.at(member);
    if (state.cluster_id == target_cluster) continue;
    if (state.cluster_id == kSoftwareTier) continue;  // nothing on devices
    dataplane::TableProgrammer& source = programmer(state.cluster_id);
    dataplane::TableProgrammer& target = programmer(target_cluster);
    // Install on the target first, then retire from the source: the
    // director flip in between is the atomic switchover point.
    for (const auto& [prefix, action] : state.routes) {
      target.install_route(member, prefix, action);
    }
    for (const auto& [key, action] : state.mappings) {
      target.install_mapping(key, action);
    }
    director_.assign(member, target_cluster);
    for (const auto& [prefix, action] : state.routes) {
      source.remove_route(member, prefix);
    }
    for (const auto& [key, action] : state.mappings) {
      source.remove_mapping(key);
    }
    state.cluster_id = target_cluster;
  }
  alerts_.push_back("migrated VNI " + std::to_string(vni) + " (+" +
                    std::to_string(group.size() - 1) +
                    " peers) to cluster " +
                    std::to_string(target_cluster));
  ctr_migrations_->add();
  journal_->record("migration",
                   "migrated VNI " + std::to_string(vni) + " (+" +
                       std::to_string(group.size() - 1) +
                       " peers) to cluster " +
                       std::to_string(target_cluster));
  return true;
}

xgwh::ForwardResult Controller::process(const net::OverlayPacket& packet,
                                        double now) {
  ctr_packets_->add();
  auto cluster_id = director_.cluster_for(packet.vni);
  if (!cluster_id) {
    ctr_unknown_vni_->add();
    xgwh::ForwardResult result;
    result.action = dataplane::Action::kDrop;
    result.drop_reason = dataplane::DropReason::kUnknownVni;
    result.packet = packet;
    return result;
  }
  return clusters_[*cluster_id]->forward(packet, now);
}

Controller::ConsistencyReport Controller::check_consistency(
    std::size_t cluster_index) const {
  ConsistencyReport report;
  const XgwHCluster& cluster = *clusters_.at(cluster_index);
  report.devices_checked = cluster.device_count();

  for (const auto& [vni, state] : vpcs_) {
    if (state.cluster_id != cluster.id()) continue;
    for (std::size_t d = 0; d < cluster.device_count(); ++d) {
      const xgwh::XgwH& device = cluster.device(d);
      for (const auto& [prefix, action] : state.routes) {
        ++report.entries_checked;
        if (!device.has_route(vni, prefix)) ++report.missing_on_device;
      }
      for (const auto& [key, action] : state.mappings) {
        ++report.entries_checked;
        if (!device.has_mapping(key)) ++report.missing_on_device;
      }
    }
  }
  return report;
}

std::vector<std::size_t> Controller::cluster_route_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(clusters_.size());
  for (const auto& cluster : clusters_) {
    counts.push_back(cluster->route_count());
  }
  return counts;
}

telemetry::Snapshot Controller::telemetry_snapshot() const {
  telemetry::Snapshot merged = registry_->snapshot();
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (std::size_t d = 0; d < clusters_[c]->device_count(); ++d) {
      merged.merge(clusters_[c]->device(d).registry().snapshot(),
                   "cluster" + std::to_string(c) + ".device" +
                       std::to_string(d) + ".");
    }
  }
  return merged;
}

std::vector<double> Controller::cluster_traffic_share() const {
  std::vector<double> bytes(clusters_.size(), 0.0);
  double total = 0;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (std::size_t d = 0; d < clusters_[c]->device_count(); ++d) {
      const xgwh::XgwH& device = clusters_[c]->device(d);
      const double b = static_cast<double>(
          device.registry().counter_value("xgwh.bytes_in"));
      bytes[c] += b;
      total += b;
    }
  }
  if (total > 0) {
    for (double& share : bytes) share /= total;
  }
  return bytes;
}

}  // namespace sf::cluster

#include "core/region.hpp"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <utility>

#include "net/hash.hpp"
#include "sim/table_printer.hpp"

namespace sf::core {

namespace {

/// A hop's counter context: `names` read from `registry` after the packet.
std::vector<std::pair<std::string, std::uint64_t>> counters_of(
    const telemetry::Registry& registry,
    std::initializer_list<const char*> names) {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (const char* name : names) {
    counters.emplace_back(name, registry.counter_value(name));
  }
  return counters;
}

/// "<action>, <latency> us[, reason: <drop reason>]" — one gateway's verdict.
std::string outcome(const dataplane::Verdict& verdict) {
  std::string text = sim::format("%s, %g us", dataplane::name(verdict.action),
                                 verdict.latency_us);
  if (verdict.dropped()) {
    text += sim::format(", reason: %s", dataplane::name(verdict.drop_reason));
  }
  return text;
}

}  // namespace

std::string PathTrace::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    out += sim::format("  [%zu] %s: %s\n", i + 1, hops[i].where.c_str(),
                       hops[i].detail.c_str());
    if (hops[i].counters.empty()) continue;
    out += "      counters:";
    for (const auto& [name, value] : hops[i].counters) {
      out += " " + name + "=" + std::to_string(value);
    }
    out += "\n";
  }
  out += "  => " + dataplane::path_label(result);
  if (result.dropped()) {
    out += sim::format(" (%s)", dataplane::name(result.drop_reason));
  }
  return out;
}

SailfishRegion::SailfishRegion(Config config)
    : config_(config),
      controller_(config.controller),
      x86_ecmp_(config.x86_ecmp_max_next_hops) {
  if (config_.x86_nodes == 0) {
    throw std::invalid_argument("a region needs at least one XGW-x86");
  }
  for (std::size_t i = 0; i < config_.x86_nodes; ++i) {
    x86::XgwX86::Config cfg = config_.x86_template;
    cfg.device_ip =
        net::Ipv4Addr(config_.x86_template.device_ip.value() +
                      static_cast<std::uint32_t>(i));
    x86_nodes_.push_back(std::make_unique<x86::XgwX86>(cfg));
    x86_ecmp_.add(static_cast<std::uint32_t>(i));
  }

  // Software holds the complete tables: mirror every controller op to
  // every node through the shared table interface. DPU nodes receive the
  // same fan-out as an *invalidation* (a mutated tenant's placed flows
  // evict — their cached verdicts may be stale), and the placer forgets
  // those placements so the flows can re-promote against fresh state.
  controller_.set_mirror([this](const dataplane::TableOp& op) {
    for (auto& node : x86_nodes_) dataplane::apply(*node, op);
    for (auto& node : dpu_nodes_) dataplane::apply(*node, op);
    if (placer_) placer_->evict_vni(op.vni);
  });

  recovery_ = std::make_unique<cluster::DisasterRecovery>(&controller_,
                                                          config_.recovery);

  engine_ = std::make_unique<dataplane::ShardEngine>(config_.interval_engine);

  registry_ = std::make_unique<telemetry::Registry>();
  if (config_.enable_guard) {
    guard_ = std::make_unique<guard::TenantGuard>(config_.guard);
    ctr_guard_admitted_ = &registry_->counter("region.guard.admitted");
    ctr_guard_established_ =
        &registry_->counter("region.guard.established_served");
    ctr_guard_shed_new_flow_ =
        &registry_->counter("region.guard.shed_new_flow");
    ctr_guard_shed_tenant_ = &registry_->counter("region.guard.shed_tenant");
    ctr_guard_escalations_ =
        &registry_->counter("region.guard.tier_escalations");
    ctr_guard_deescalations_ =
        &registry_->counter("region.guard.tier_deescalations");
    ctr_guard_shed_upps_sum_ =
        &registry_->counter("region.guard.shed_upps_sum");
  }
  if (config_.enable_punt_path) {
    punt_queue_ = std::make_unique<guard::PuntQueue>(config_.punt_queue);
    ctr_guard_punted_ = &registry_->counter("region.guard.punted");
    ctr_guard_punt_queue_full_ =
        &registry_->counter("region.guard.punt_queue_full");
  }
  if (config_.enable_dpu) {
    const std::size_t dpu_count = std::max<std::size_t>(1, config_.dpu_nodes);
    for (std::size_t i = 0; i < dpu_count; ++i) {
      dpu::XgwDpu::Config cfg = config_.dpu_template;
      cfg.device_ip =
          net::Ipv4Addr(config_.dpu_template.device_ip.value() +
                        static_cast<std::uint32_t>(i));
      dpu_nodes_.push_back(std::make_unique<dpu::XgwDpu>(cfg));
    }
    // The placer spreads its sketches over the interval engine's shard
    // count, which fixes each sketch's seed and so the placements.
    placer_ = std::make_unique<dpu::TierPlacer>(
        config_.tier_placer, config_.interval_engine.shards, dpu_count);
    ctr_dpu_served_ = &registry_->counter("region.dpu.served");
    ctr_dpu_fallback_ = &registry_->counter("region.dpu.fallback");
    ctr_dpu_promotions_ = &registry_->counter("region.dpu.promotions");
    ctr_dpu_demotions_ = &registry_->counter("region.dpu.demotions");
    ctr_dpu_pps_sum_ = &registry_->counter("region.dpu.pps_sum");
  }
  ctr_packets_ = &registry_->counter("region.packets");
  ctr_hw_forwarded_ = &registry_->counter("region.hw_forwarded");
  ctr_hw_tunnel_ = &registry_->counter("region.hw_tunnel");
  ctr_sw_forwarded_ = &registry_->counter("region.sw_forwarded");
  ctr_sw_snat_ = &registry_->counter("region.sw_snat");
  ctr_dropped_ = &registry_->counter("region.dropped");
  ctr_intervals_ = &registry_->counter("region.intervals");
  ctr_offered_bps_sum_ = &registry_->counter("region.offered_bps_sum");
  ctr_offered_pps_sum_ = &registry_->counter("region.offered_pps_sum");
  ctr_dropped_upps_sum_ = &registry_->counter("region.dropped_upps_sum");
  ctr_fallback_bps_sum_ = &registry_->counter("region.fallback_bps_sum");
  ctr_pipe1_bps_sum_ = &registry_->counter("region.pipe1_bps_sum");
  ctr_pipe3_bps_sum_ = &registry_->counter("region.pipe3_bps_sum");
}

std::size_t SailfishRegion::install_topology(
    const workload::RegionTopology& region) {
  return controller_.install_topology(region);
}

std::pair<std::size_t, std::size_t> SailfishRegion::punt_lane_for(
    const net::OverlayPacket& packet) const {
  const auto cluster_id = controller_.cluster_for(packet.vni);
  if (!cluster_id) return {0, 0};
  const std::size_t cluster = *cluster_id;
  const auto device = controller_.cluster(cluster).pick_device(packet.inner);
  return {cluster, device.value_or(0)};
}

dataplane::Verdict SailfishRegion::finish_software(const x86::XgwX86& node,
                                                   x86::X86Result sw,
                                                   double extra_latency_us,
                                                   PathTrace* trace) {
  if (trace) {
    std::string detail = outcome(sw);
    if (sw.snat) {
      detail += sim::format(", SNAT %s:%u",
                            sw.snat->public_ip.to_string().c_str(),
                            unsigned{sw.snat->public_port});
    }
    trace->hops.push_back(
        {"xgw-x86", std::move(detail),
         counters_of(node.registry(),
                     {"x86.packets_in", "x86.packets_forwarded",
                      "x86.packets_snat", "x86.packets_dropped"})});
  }
  dataplane::Verdict verdict = std::move(static_cast<dataplane::Verdict&>(sw));
  verdict.latency_us += extra_latency_us;
  verdict.software_path = true;
  switch (verdict.action) {
    case dataplane::Action::kForwardToNc:
    case dataplane::Action::kForwardTunnel:
      ctr_sw_forwarded_->add();
      break;
    case dataplane::Action::kSnatToInternet:
      ctr_sw_snat_->add();
      break;
    case dataplane::Action::kDrop:
      ctr_dropped_->add();
      count_drop_reason(verdict.drop_reason);
      break;
    default:
      break;
  }
  return verdict;
}

dataplane::Verdict SailfishRegion::punt_to_x86(
    const net::OverlayPacket& packet, double now, double base_latency_us,
    bool allow_cache, PathTrace* trace) {
  const auto [cluster, device] = punt_lane_for(packet);
  const guard::PuntQueue::Admit admit =
      punt_queue_->offer(cluster, device, now);
  if (!admit.admitted) {
    // Queue-full backpressure is a *typed* drop, never silent loss.
    ctr_guard_punt_queue_full_->add();
    ctr_dropped_->add();
    count_drop_reason(dataplane::DropReason::kPuntQueueFull);
    if (trace) {
      trace->hops.push_back(
          {"punt lane", sim::format("cluster %zu device %zu: queue full",
                                    cluster, device)});
    }
    return dataplane::Verdict::drop(dataplane::DropReason::kPuntQueueFull);
  }
  ctr_guard_punted_->add();
  // Each hardware device drains to a fixed paired XGW-x86 (static
  // pairing keeps the punt lane's destination stable; contrast with the
  // legacy tuple-ECMP fallback steering).
  const cluster::XgwHCluster::Config& shape =
      config_.controller.cluster_template;
  const std::size_t devices_per_cluster =
      std::max<std::size_t>(1, shape.primary_devices + shape.backup_devices);
  const std::size_t index =
      (cluster * devices_per_cluster + device) % x86_nodes_.size();
  if (trace) {
    trace->hops.push_back(
        {"punt lane",
         sim::format("cluster %zu device %zu -> xgw-x86 node %zu, queue "
                     "delay %g us",
                     cluster, device, index, admit.queue_delay_us)});
  }
  x86::XgwX86& node = *x86_nodes_[index];
  x86::X86Result sw = allow_cache ? node.forward(packet, now)
                                  : node.forward_punted(packet, now);
  return finish_software(node, std::move(sw),
                         base_latency_us + admit.queue_delay_us, trace);
}

std::optional<dataplane::Verdict> SailfishRegion::try_dpu(
    const net::OverlayPacket& packet, double now, double extra_latency_us,
    PathTrace* trace) {
  if (dpu_nodes_.empty()) return std::nullopt;
  const auto node =
      placer_->placement(telemetry::FlowKey{packet.vni, packet.inner});
  if (!node) return std::nullopt;
  dataplane::Verdict verdict = dpu_nodes_[*node]->process(packet, now);
  if (verdict.action == dataplane::Action::kFallbackToX86) {
    // Placed, but the box lost the entry (failure) — keep going to x86.
    ctr_dpu_fallback_->add();
    if (trace) {
      trace->hops.push_back({"xgw-dpu", "dpu node " + std::to_string(*node) +
                                            " lost the placed entry"});
    }
    return std::nullopt;
  }
  if (trace) {
    trace->hops.push_back({"xgw-dpu", sim::format("dpu node %zu placed flow: ",
                                                  *node) +
                                          outcome(verdict)});
  }
  verdict.latency_us += extra_latency_us;
  ctr_dpu_served_->add();
  return verdict;
}

dataplane::Verdict SailfishRegion::serve_software(
    const net::OverlayPacket& packet, double now, double base_latency_us,
    bool allow_cache, PathTrace* trace) {
  if (auto verdict = try_dpu(packet, now, base_latency_us, trace)) {
    return *verdict;
  }
  if (punt_queue_) {
    return punt_to_x86(packet, now, base_latency_us, allow_cache, trace);
  }
  // Legacy software path: the XGW-H rewrote the outer header toward the
  // fleet VIP; ECMP picks the node, which processes the *original*
  // overlay packet (outer headers are re-derived there).
  const std::size_t index = x86_index_for(packet.inner);
  if (trace) {
    trace->hops.push_back(
        {"fallback ecmp", "steered to xgw-x86 node " + std::to_string(index)});
  }
  x86::XgwX86& node = *x86_nodes_[index];
  return finish_software(node, node.forward(packet, now), base_latency_us,
                         trace);
}

void SailfishRegion::set_dpu_failed(std::size_t node, bool failed) {
  dpu_nodes_.at(node)->set_failed(failed);
  if (failed) placer_->evict_node(node);
}

void SailfishRegion::publish_pressure_gauges(double now) {
  if (punt_queue_) {
    registry_->gauge("region.punt_queue.occupancy")
        .set(punt_queue_->max_occupancy(now));
    registry_->gauge("region.punt_queue.high_watermark")
        .set(punt_queue_->stats().high_watermark);
  }
  double cache_occupied = 0;
  double cache_watermark = 0;
  for (const auto& node : x86_nodes_) {
    const dataplane::FlowCacheStats& stats = node->flow_cache_stats();
    cache_occupied += static_cast<double>(stats.occupied);
    cache_watermark += static_cast<double>(stats.high_watermark);
  }
  registry_->gauge("region.flow_cache.occupied").set(cache_occupied);
  registry_->gauge("region.flow_cache.high_watermark").set(cache_watermark);
  if (!dpu_nodes_.empty()) {
    double entries = 0;
    double capacity = 0;
    for (const auto& node : dpu_nodes_) {
      entries += static_cast<double>(node->flow_count());
      capacity += static_cast<double>(node->config().flow_table_entries);
    }
    registry_->gauge("region.dpu.flow_entries").set(entries);
    registry_->gauge("region.dpu.table_occupancy")
        .set(capacity > 0 ? entries / capacity : 0);
  }
  if (const asic::PlacementEngine* engine = controller_.placement_engine()) {
    const asic::Placement& placement = engine->placement();
    const asic::ChipConfig& chip = placement.chip();
    for (unsigned p = 0; p < chip.pipelines; ++p) {
      const std::string prefix =
          "region.placement.pipe" + std::to_string(p);
      registry_->gauge(prefix + ".sram_words")
          .set(static_cast<double>(
              placement.pipe_units(p, asic::MemoryKind::kSram)));
      registry_->gauge(prefix + ".tcam_slices")
          .set(static_cast<double>(
              placement.pipe_units(p, asic::MemoryKind::kTcam)));
    }
    const asic::PlacementStats& stats = placement.stats();
    registry_->gauge("region.placement.spill_segments")
        .set(static_cast<double>(placement.spill_segment_count()));
    registry_->gauge("region.placement.delta_applies")
        .set(static_cast<double>(stats.delta_applies));
    registry_->gauge("region.placement.full_recomputes")
        .set(static_cast<double>(stats.full_recomputes));
    registry_->gauge("region.placement.feasible")
        .set(placement.feasible() ? 1.0 : 0.0);
  }
}

const xgwh::XgwH* SailfishRegion::trace_steering(
    const net::OverlayPacket& packet, PathTrace& trace) const {
  const std::string vni = "vni " + std::to_string(packet.vni);
  const auto cluster_id = controller_.cluster_for(packet.vni);
  if (!cluster_id) {  // software-tier VNIs have no cluster either
    trace.hops.push_back(
        {"vni-director", vni + (controller_.is_overflow(packet.vni)
                                    ? " -> software tier (overflow-admitted)"
                                    : " not assigned to any cluster")});
    return nullptr;
  }
  trace.hops.push_back(
      {"vni-director", vni + " -> cluster " + std::to_string(*cluster_id)});
  const cluster::XgwHCluster& cluster = controller_.cluster(*cluster_id);
  const std::string where =
      "cluster " + std::to_string(*cluster_id) + " ecmp";
  const auto device = cluster.pick_device(packet.inner);
  if (!device) {
    trace.hops.push_back({where, "no live devices"});
    return nullptr;
  }
  const xgwh::XgwH& gateway = cluster.device(*device);
  trace.hops.push_back(
      {where, "flow hash -> device " + std::to_string(*device) + " (" +
                  gateway.config().device_ip.to_string() + ")" +
                  (cluster.failed_over() ? " [serving from backups]" : "")});
  return &gateway;
}

dataplane::Verdict SailfishRegion::process_packet(
    const net::OverlayPacket& packet, double now, PathTrace* trace) {
  ctr_packets_->add();

  // Software-tier tenants (overflow-admitted) never touch XGW-H: the VNI
  // director does not know them, so the whole region path is DPU-then-x86.
  // The guard still meters them below like everyone else.
  const bool software_tier = controller_.is_overflow(packet.vni);

  // Tenant guard: meter the packet before any gateway sees it.
  if (guard_ && guard_->any_limits()) {
    const guard::TenantGuard::Stats before = guard_->stats();
    const guard::TenantGuard::PacketDecision decision = guard_->admit_packet(
        packet.vni, packet.wire_size(), now, [&] {
          const auto cluster_id = controller_.cluster_for(packet.vni);
          if (!cluster_id) return false;
          return controller_.cluster(*cluster_id).flow_established(packet);
        });
    const guard::TenantGuard::Stats& after = guard_->stats();
    if (after.escalations > before.escalations) ctr_guard_escalations_->add();
    if (after.deescalations > before.deescalations) {
      ctr_guard_deescalations_->add();
    }
    const bool punt = !decision.admit && decision.punt && punt_queue_;
    const dataplane::DropReason reason =
        decision.punt ? dataplane::DropReason::kTenantNewFlowShed
                      : decision.drop_reason;
    if (trace) {
      const char* verdict =
          decision.admit ? decision.tier == guard::Tier::kFull
                               ? "admitted"
                               : "admitted (established flow)"
          : punt ? "punted (new flow over budget)"
                 : dataplane::name(reason);
      trace->hops.push_back(
          {"tenant-guard", sim::format("vni %u at %s: %s", packet.vni,
                                       guard::name(decision.tier), verdict)});
    }
    if (decision.admit) {
      if (decision.tier == guard::Tier::kShedNewFlows) {
        ctr_guard_established_->add();
      } else {
        ctr_guard_admitted_->add();
      }
    } else if (punt) {
      // Tier-1 non-established packet: serve via the punt path. A placed
      // DPU entry absorbs it first — the elephant's spillover never even
      // queues. The x86 cache is off-limits for these — meter-degraded
      // spillover must never earn fast-path entries.
      return serve_software(packet, now, 0.0, /*allow_cache=*/false, trace);
    } else {
      if (reason == dataplane::DropReason::kTenantShed) {
        ctr_guard_shed_tenant_->add();
      } else {
        ctr_guard_shed_new_flow_->add();
      }
      ctr_dropped_->add();
      count_drop_reason(reason);
      return dataplane::Verdict::drop(reason);
    }
  }

  const xgwh::XgwH* device = trace ? trace_steering(packet, *trace) : nullptr;
  if (software_tier) {
    return serve_software(packet, now, 0.0, /*allow_cache=*/true, trace);
  }

  xgwh::ForwardResult hw = controller_.process(packet, now);
  if (device) {
    std::string detail =
        outcome(hw) + sim::format(", %u pipeline pass(es)", hw.passes);
    if (hw.shard_pipe) {
      detail += sim::format(", loopback via egress pipe %u", *hw.shard_pipe);
    }
    trace->hops.push_back(
        {"xgw-h", std::move(detail),
         counters_of(device->registry(),
                     {"xgwh.packets_in", "xgwh.packets_forwarded",
                      "xgwh.packets_fallback", "xgwh.packets_dropped"})});
  }
  if (hw.action != dataplane::Action::kFallbackToX86) {
    if (trace && !hw.dropped()) {
      const std::string dip = hw.packet.outer_dst_ip.to_string();
      trace->hops.push_back(
          {"underlay", hw.action == dataplane::Action::kForwardTunnel
                           ? "tunnel to " + dip
                           : "outer DIP " + dip + " (destination NC)"});
    }
    switch (hw.action) {
      case dataplane::Action::kForwardToNc:
        ctr_hw_forwarded_->add();
        break;
      case dataplane::Action::kForwardTunnel:
        ctr_hw_tunnel_->add();
        break;
      case dataplane::Action::kDrop:
        ctr_dropped_->add();
        count_drop_reason(hw.drop_reason);
        break;
      default:
        break;
    }
    return std::move(static_cast<dataplane::Verdict&>(hw));
  }

  // Fallback traffic (SNAT, table-placement misses, fallback-metered
  // flows): a placed DPU entry serves it before any x86 involvement; with
  // a punt path configured the rest crosses the bounded per-device punt
  // queue toward the paired node; normal fallback may use the x86 flow
  // cache (it is steady-state traffic, not overload spillover).
  return serve_software(packet, now, hw.latency_us, /*allow_cache=*/true,
                        trace);
}

void SailfishRegion::count_drop_reason(dataplane::DropReason reason) {
  // Per-reason drop accounting: drops are rare, so the by-name lookup is
  // fine here, and snapshot deltas of "region.drop.<reason>" measure what
  // was lost inside a failover window and why.
  registry_->counter("region.drop." + dataplane::to_string(reason)).add();
}

SailfishRegion::IntervalReport SailfishRegion::simulate_interval(
    std::span<const workload::Flow> flows, double total_bps,
    std::uint64_t jitter_key) const {
  IntervalReport report;
  report.offered_bps = total_bps;

  const std::size_t clusters = controller_.cluster_count();
  const std::size_t nodes = x86_nodes_.size();

  // ---- Guard pre-pass: per-tenant metering + degradation ladder -----------
  // Runs only when a guard with limits exists. One sweep in flow order sums
  // each metered tenant's offered rate, then one ladder step per interval
  // produces each tenant's admit fraction; everything downstream sees the
  // post-shed rates.
  std::map<net::Vni, double> guard_admit;
  if (guard_ && guard_->any_limits()) {
    std::map<net::Vni, guard::TenantGuard::Offered> offered;
    for (const workload::Flow& flow : flows) {
      if (!guard_->metered(flow.vni)) continue;
      guard::TenantGuard::Offered& load = offered[flow.vni];
      const double bps = flow.weight * total_bps;
      load.bps += bps;
      load.pps += bps / 8.0 / static_cast<double>(flow.packet_size);
    }
    telemetry::Registry guard_stats;
    guard_admit =
        guard_->interval_step(offered, report.guard_tenants, guard_stats);
    for (const auto& tenant : report.guard_tenants) {
      report.guard_shed_pps += tenant.shed_pps;
    }
    for (const auto& [name, value] : guard_stats.snapshot().counters) {
      registry_->counter("region." + name).add(value);
    }
  }

  // ---- Tier-placement pass: sketch update + promotion/demotion ------------
  // Only when the DPU tier is built. One sweep in flow order feeds the
  // sketches, and the apply step runs over ordered state, so the placement
  // after any interval is byte-identical at any thread count.
  const bool dpu_active = !dpu_nodes_.empty();
  const bool overflow_active = controller_.overflow_count() > 0;
  if (dpu_active) {
    placer_->begin_interval();
    for (const workload::Flow& flow : flows) {
      if (flow.scope == tables::RouteScope::kInternet) continue;
      if (!controller_.is_overflow(flow.vni)) continue;
      const double bps = flow.weight * total_bps;
      const double pps = bps / 8.0 / static_cast<double>(flow.packet_size);
      placer_->observe(telemetry::FlowKey{flow.vni, flow.tuple},
                       static_cast<std::uint64_t>(pps));
    }
    const dpu::TierPlacer::ApplyResult placed = placer_->apply(
        [&](const telemetry::FlowKey& key, std::size_t node) {
          // Interval-model entries carry a synthetic pre-resolved verdict;
          // only placement (and hence capacity/latency) matters here. The
          // functional path installs real verdicts through the same API.
          return dataplane::succeeded(dpu_nodes_[node]->install_flow(
              key.vni, key.tuple,
              dpu::XgwDpu::FlowEntry{dataplane::Action::kForwardToNc,
                                     net::IpAddr{}}));
        },
        [&](const telemetry::FlowKey& key, std::size_t node) {
          dpu_nodes_[node]->remove_flow(key.vni, key.tuple);
        });
    report.dpu_promotions = placed.promoted;
    report.dpu_demotions = placed.demoted;
    ctr_dpu_promotions_->add(placed.promoted);
    ctr_dpu_demotions_->add(placed.demoted);
  }

  // ---- Phase A: classification over contiguous chunks ---------------------
  // Classifying flow i reads only sealed shared state (the controller's
  // cluster and overflow maps, guard_admit, the DPU placement) and writes
  // only classified[i], so which worker takes which chunk cannot change a
  // result.
  enum class Kind : std::uint8_t {
    kHardware,
    kSoftware,
    kUnknownVni,
    kDpu,          // software-tier flow placed on a DPU node
    kOverflowX86,  // software-tier flow crossing to x86
  };
  struct Classified {
    double pps = 0;
    double bps = 0;
    std::uint32_t cluster = 0;
    std::uint32_t node = 0;
    std::uint8_t pipe = 0;
    Kind kind = Kind::kUnknownVni;
  };
  constexpr std::size_t kChunks = 16;
  std::vector<Classified> classified(flows.size());
  std::vector<std::function<void()>> chunk_tasks;
  chunk_tasks.reserve(kChunks);
  for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
    chunk_tasks.push_back([&, chunk] {
      const std::size_t end = flows.size() * (chunk + 1) / kChunks;
      for (std::size_t i = flows.size() * chunk / kChunks; i < end; ++i) {
        const workload::Flow& flow = flows[i];
        Classified& out = classified[i];
        out.bps = flow.weight * total_bps;
        out.pps = out.bps / 8.0 / static_cast<double>(flow.packet_size);
        // Guard: downstream sees only the admitted share; the shed share
        // is accounted as guard drops in the reduce.
        if (!guard_admit.empty()) {
          if (auto it = guard_admit.find(flow.vni); it != guard_admit.end()) {
            out.bps *= it->second;
            out.pps *= it->second;
          }
        }
        if (flow.scope == tables::RouteScope::kInternet) {
          out.kind = Kind::kSoftware;
          out.node = x86_index_for(flow.tuple);
        } else if (const auto cluster_id = controller_.cluster_for(flow.vni)) {
          out.kind = Kind::kHardware;
          out.cluster = *cluster_id;
          // Loopback-pipe accounting: the VNI's shard picks pipe 1 or 3
          // (Fig. 14).
          out.pipe = static_cast<std::uint8_t>(
              1 + 2 * xgwh::XgwH::shard_of_vni(flow.vni));
        } else if (controller_.is_overflow(flow.vni)) {
          // Software-tier tenants are *admitted*, just not in hardware: a
          // placed elephant rides its DPU entry, the rest crosses to x86.
          const auto node =
              dpu_active ? placer_->placement(
                               telemetry::FlowKey{flow.vni, flow.tuple})
                         : std::nullopt;
          out.kind = node ? Kind::kDpu : Kind::kOverflowX86;
          out.node = static_cast<std::uint32_t>(
              node ? *node : x86_index_for(flow.tuple));
        }  // any other VNI keeps the default kind, kUnknownVni
      }
    });
  }
  engine_->run_tasks(std::move(chunk_tasks));

  // ---- Phase B: one index-order sweep -------------------------------------
  // One pass over the classified flows, in index order and on one thread,
  // feeds every accumulator, so each floating-point sum receives its
  // additions in flow order whatever the thread count.
  struct DeviceLoad {
    double pps = 0;
    double bps = 0;
  };
  // Each Flow aggregates a tenant's many real 5-tuples, so ECMP spreads it
  // near-uniformly over the cluster's live devices (device-level bins are
  // huge — §5.2's balls-into-bins argument; contrast with the per-core
  // lumping modeled in x86::simulate_interval). Every live device of a
  // cluster would receive the same additions, so one sum per cluster
  // stands for each of them.
  std::vector<DeviceLoad> device_share(clusters);
  std::vector<std::size_t> live_devices(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    live_devices[c] =
        std::max<std::size_t>(1, controller_.cluster(c).live_device_count());
  }
  double offered_pps = 0;
  double fallback_bps = 0;
  double fallback_pps = 0;
  double unknown_vni_pps = 0;
  double overflow_x86_offered_pps = 0;
  std::array<double, 4> shard_pipe_bps{};
  std::vector<DeviceLoad> dpu_load(dpu_nodes_.size());
  // Each x86 node's RSS flow list, and where its overflow entries sit.
  std::vector<std::vector<x86::FlowRate>> node_flows(nodes);
  std::vector<std::vector<std::size_t>> node_overflow(nodes);
  std::array<std::uint64_t, 5> kind_count{};  // indexed by Kind
  for (std::size_t i = 0; i < classified.size(); ++i) {
    const Classified& f = classified[i];
    ++kind_count[static_cast<std::size_t>(f.kind)];
    offered_pps += f.pps;
    switch (f.kind) {
      case Kind::kHardware: {
        shard_pipe_bps[f.pipe] += f.bps;
        const auto devices = static_cast<double>(live_devices[f.cluster]);
        device_share[f.cluster].pps += f.pps / devices;
        device_share[f.cluster].bps += f.bps / devices;
        break;
      }
      case Kind::kSoftware:
        fallback_bps += f.bps;
        fallback_pps += f.pps;
        node_flows[f.node].push_back({flows[i].tuple, f.pps, f.bps});
        break;
      case Kind::kUnknownVni:
        unknown_vni_pps += f.pps;
        break;
      case Kind::kDpu:
        dpu_load[f.node].pps += f.pps;
        dpu_load[f.node].bps += f.bps;
        break;
      case Kind::kOverflowX86:
        overflow_x86_offered_pps += f.pps;
        node_overflow[f.node].push_back(node_flows[f.node].size());
        node_flows[f.node].push_back({flows[i].tuple, f.pps, f.bps});
        break;
    }
  }
  const auto count_of = [&](Kind kind) {
    return kind_count[static_cast<std::size_t>(kind)];
  };
  registry_->counter("region.engine.flows").add(flows.size());
  registry_->counter("region.engine.hw_flows").add(count_of(Kind::kHardware));
  registry_->counter("region.engine.sw_flows").add(count_of(Kind::kSoftware));
  registry_->counter("region.engine.unknown_vni_flows")
      .add(count_of(Kind::kUnknownVni));
  // These register lazily so runs without overflow tenants keep
  // byte-identical snapshots.
  if (count_of(Kind::kDpu) > 0) {
    registry_->counter("region.engine.dpu_flows").add(count_of(Kind::kDpu));
  }
  if (count_of(Kind::kOverflowX86) > 0) {
    registry_->counter("region.engine.overflow_x86_flows")
        .add(count_of(Kind::kOverflowX86));
  }

  // Overflow spillover toward x86 crosses the punt lanes as a fluid
  // queue: offered beyond the drain capacity drops (the interval-model
  // analog of kPuntQueueFull), and the occupancy fraction reports how
  // deep the lanes run.
  double overflow_scale = 1.0;
  if (overflow_active && punt_queue_) {
    const double drain_pps =
        config_.punt_queue.drain_pps * static_cast<double>(nodes);
    if (overflow_x86_offered_pps > drain_pps && drain_pps > 0) {
      overflow_scale = drain_pps / overflow_x86_offered_pps;
    }
    report.punt_queue_occupancy =
        drain_pps > 0 ? std::min(1.0, overflow_x86_offered_pps / drain_pps)
                      : 1.0;
  }

  // Software path: one task per non-empty node scales its overflow
  // entries to the punt-lane-admitted share and runs the node's core
  // simulation.
  std::vector<x86::IntervalReport> node_reports(nodes);
  std::vector<std::function<void()>> node_tasks;
  node_tasks.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    if (node_flows[n].empty()) continue;
    node_tasks.push_back([&, n] {
      for (const std::size_t at : node_overflow[n]) {
        node_flows[n][at].pps *= overflow_scale;
        node_flows[n][at].bps *= overflow_scale;
      }
      node_reports[n] = x86_nodes_[n]->simulate_interval(node_flows[n]);
    });
  }
  engine_->run_tasks(std::move(node_tasks));

  // ---- Phase C: sequential reduce (fixed order, one thread) ---------------
  // Offered is the raw (pre-shed) rate: the served sum plus what the
  // guard shed, so drop rates are measured against what tenants offered.
  report.offered_pps = offered_pps + report.guard_shed_pps;
  report.fallback_bps = fallback_bps;
  report.fallback_pps = fallback_pps;
  report.shard_pipe_bps = shard_pipe_bps;
  report.dropped_pps = unknown_vni_pps + report.guard_shed_pps;

  // Hardware drops: per-device pps and bps ceilings (huge) plus the
  // residual loss floor, deterministically jittered per interval.
  double hw_pps = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    const std::size_t device_count = controller_.cluster(c).device_count();
    if (device_count == 0) continue;
    // Port-level isolation shaves capacity: scale the per-device envelope
    // by the cluster's mean usable-capacity fraction from the recovery
    // coordinator. With no isolated ports every fraction is exactly 1.0,
    // so healthy intervals reproduce the unscaled arithmetic bit for bit.
    double capacity_scale = 0;
    for (std::size_t d = 0; d < device_count; ++d) {
      capacity_scale += recovery_->device_capacity_fraction(c, d);
    }
    capacity_scale /= static_cast<double>(device_count);
    const double cap_pps =
        controller_.cluster(c).device(0).max_packet_rate_pps() *
        capacity_scale;
    const double cap_bps =
        controller_.cluster(c).device(0).max_throughput_bps() *
        capacity_scale;
    for (std::size_t d = 0; d < device_count; ++d) {
      // The first live_devices[c] devices carry the cluster's share.
      const DeviceLoad load =
          d < live_devices[c] ? device_share[c] : DeviceLoad{};
      hw_pps += load.pps;
      const double overload =
          std::max({load.pps / cap_pps, load.bps / cap_bps, 1.0});
      report.dropped_pps += load.pps * (1.0 - 1.0 / overload);
    }
  }
  const double jitter =
      0.5 + 1.5 * (static_cast<double>(net::mix64(jitter_key) >> 11) *
                   0x1.0p-53);
  report.dropped_pps += hw_pps * config_.hardware_loss_floor * jitter;

  // Software path: fold the per-node reports in node order.
  for (std::size_t n = 0; n < nodes; ++n) {
    if (node_flows[n].empty()) continue;
    report.dropped_pps += node_reports[n].dropped_pps;
    report.x86_max_core_utilization = std::max(
        report.x86_max_core_utilization, node_reports[n].max_core_utilization);
  }

  // DPU tier: per-node capacity ceilings (same fluid arithmetic as the
  // hardware devices) and table occupancy; overflow spillover beyond the
  // punt-lane drain capacity drops. All sums in fixed node order.
  if (dpu_active) {
    for (std::size_t d = 0; d < dpu_load.size(); ++d) {
      report.dpu_pps += dpu_load[d].pps;
      report.dpu_bps += dpu_load[d].bps;
      const dpu::XgwDpu::Config& cfg = dpu_nodes_[d]->config();
      const double overload =
          std::max({dpu_load[d].pps / cfg.max_packet_rate_pps,
                    dpu_load[d].bps / cfg.max_throughput_bps, 1.0});
      report.dropped_pps += dpu_load[d].pps * (1.0 - 1.0 / overload);
      report.dpu_flow_entries += dpu_nodes_[d]->flow_count();
    }
    double capacity = 0;
    for (const auto& node : dpu_nodes_) {
      capacity += static_cast<double>(node->config().flow_table_entries);
    }
    report.dpu_table_occupancy =
        capacity > 0 ? static_cast<double>(report.dpu_flow_entries) / capacity
                     : 0;
    ctr_dpu_pps_sum_->add(static_cast<std::uint64_t>(report.dpu_pps));
  }
  if (overflow_active) {
    report.overflow_x86_pps = overflow_x86_offered_pps * overflow_scale;
    report.overflow_pps = overflow_x86_offered_pps + report.dpu_pps;
    report.dropped_pps +=
        overflow_x86_offered_pps * (1.0 - overflow_scale);
  }

  // pps-weighted p99 over the served path classes: ASIC, DPU, plain x86,
  // and overflow-x86 including its fluid queueing delay. Only computed
  // when the three-tier machinery is in play; classic regions report 0.
  if (overflow_active || dpu_active) {
    struct PathClass {
      double latency_us = 0;
      double pps = 0;
    };
    const double x86_latency = config_.x86_template.model.latency_us(
        report.x86_max_core_utilization);
    const double queue_delay_us =
        punt_queue_ ? report.punt_queue_occupancy *
                          static_cast<double>(
                              config_.punt_queue.depth_packets) /
                          config_.punt_queue.drain_pps * 1e6
                    : 0;
    std::vector<PathClass> path_classes;
    path_classes.push_back(
        {config_.controller.cluster_template.device.chip.latency_us(2, 650),
         hw_pps});
    path_classes.push_back(
        {config_.dpu_template.base_latency_us, report.dpu_pps});
    path_classes.push_back({x86_latency, fallback_pps});
    path_classes.push_back(
        {x86_latency + queue_delay_us, report.overflow_x86_pps});
    std::sort(path_classes.begin(), path_classes.end(),
              [](const PathClass& a, const PathClass& b) {
                return a.latency_us < b.latency_us;
              });
    double served = 0;
    for (const PathClass& c : path_classes) served += c.pps;
    double cumulative = 0;
    for (const PathClass& c : path_classes) {
      cumulative += c.pps;
      if (report.p99_latency_us == 0 && cumulative >= 0.99 * served) {
        report.p99_latency_us = c.latency_us;
      }
      if (cumulative >= 0.999 * served) {
        report.p999_latency_us = c.latency_us;
        break;
      }
    }
  }

  report.drop_rate =
      report.offered_pps > 0 ? report.dropped_pps / report.offered_pps : 0;
  report.fallback_ratio =
      total_bps > 0 ? report.fallback_bps / total_bps : 0;

  // Accumulate the interval into the registry; deltas of successive
  // snapshots recover the per-interval series the figures plot.
  ctr_intervals_->add();
  ctr_offered_bps_sum_->add(static_cast<std::uint64_t>(report.offered_bps));
  ctr_offered_pps_sum_->add(static_cast<std::uint64_t>(report.offered_pps));
  ctr_dropped_upps_sum_->add(
      static_cast<std::uint64_t>(report.dropped_pps * 1e6));
  ctr_fallback_bps_sum_->add(
      static_cast<std::uint64_t>(report.fallback_bps));
  ctr_pipe1_bps_sum_->add(
      static_cast<std::uint64_t>(report.shard_pipe_bps[1]));
  ctr_pipe3_bps_sum_->add(
      static_cast<std::uint64_t>(report.shard_pipe_bps[3]));
  if (guard_) {
    ctr_guard_shed_upps_sum_->add(
        static_cast<std::uint64_t>(report.guard_shed_pps * 1e6));
  }
  return report;
}

telemetry::Snapshot SailfishRegion::telemetry_snapshot() const {
  telemetry::Snapshot merged = registry_->snapshot();
  merged.merge(controller_.telemetry_snapshot());
  for (std::size_t n = 0; n < x86_nodes_.size(); ++n) {
    merged.merge(x86_nodes_[n]->registry().snapshot(),
                 "x86" + std::to_string(n) + ".");
  }
  for (std::size_t n = 0; n < dpu_nodes_.size(); ++n) {
    merged.merge(dpu_nodes_[n]->registry().snapshot(),
                 "dpu" + std::to_string(n) + ".");
  }
  return merged;
}

}  // namespace sf::core

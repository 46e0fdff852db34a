#include "xgwh/xgwh.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "net/hash.hpp"

namespace sf::xgwh {
namespace {

// The widths of the PHV metadata fields, indexed by XgwH::Field (kShard,
// kScope, kFallback, kResolvedVni, kTunnelIp, kNcIp): what a P4 program
// would carry in its bridged header. The stages write every field at this
// width and the path table sums these widths, so neither restates them.
constexpr unsigned kFieldBits[] = {1, 3, 1, 24, 32, 32};

using Stage = asic::GatewayStage;
using enum asic::GatewayStage;

/// Bit `gress` of a PathInfo::visits mask.
constexpr unsigned bit(asic::PathSlot gress) {
  return 1u << static_cast<unsigned>(gress);
}

}  // namespace

XgwH::Shard XgwH::make_shard(const Config& config) {
  tables::Alpm<tables::VxlanRouteAction>::Config alpm_config;
  alpm_config.max_bucket_entries = config.compression.alpm_max_bucket;
  alpm_config.directory_slice_bits = config.chip.tcam_slice_bits;
  tables::DigestVmNcTable::Config vm_config;
  vm_config.buckets = config.vm_table_buckets;
  return Shard{tables::Alpm<tables::VxlanRouteAction>(alpm_config),
               tables::DigestVmNcTable(vm_config)};
}

XgwH::XgwH(Config config)
    : config_(std::move(config)),
      shards_{make_shard(config_), make_shard(config_)},
      fallback_meter_(config_.fallback_rate_bps / 8,
                      config_.fallback_burst_bytes),
      program_(config_.chip.pipelines),
      walker_(config_.chip, &program_),
      flow_cache_(dataplane::FlowCache<CachedWalk>::Config{
          config_.flow_cache_entries}) {
  if (config_.chip.pipelines != 4) {
    throw std::invalid_argument("XGW-H expects a 4-pipeline chip");
  }

  registry_ = std::make_unique<telemetry::Registry>();
  ctr_packets_in_ = &registry_->counter("xgwh.packets_in");
  ctr_bytes_in_ = &registry_->counter("xgwh.bytes_in");
  ctr_forwarded_ = &registry_->counter("xgwh.packets_forwarded");
  ctr_fallback_ = &registry_->counter("xgwh.packets_fallback");
  ctr_dropped_ = &registry_->counter("xgwh.packets_dropped");
  ctr_rate_limited_ = &registry_->counter("xgwh.fallback_rate_limited");
  ctr_route_hit_ = &registry_->counter("xgwh.table.route.hit");
  ctr_route_miss_ = &registry_->counter("xgwh.table.route.miss");
  ctr_vm_hit_ = &registry_->counter("xgwh.table.vm_nc.hit");
  ctr_vm_miss_ = &registry_->counter("xgwh.table.vm_nc.miss");
  ctr_acl_deny_ = &registry_->counter("xgwh.table.acl.deny");
  for (unsigned pipe = 0; pipe < 4; ++pipe) {
    ctr_pipe_bytes_[pipe] = &registry_->counter(
        "xgwh.pipe" + std::to_string(pipe) + ".loopback_bytes");
  }
  hist_latency_ = &registry_->histogram(
      "xgwh.latency_us", telemetry::Histogram::Config{
                             /*min_value=*/0.25, /*growth=*/2.0,
                             /*buckets=*/16, /*reservoir=*/256});

  build_program();
  walker_.set_registry(registry_.get());
  // The walker registered its instruments in set_registry(); resolve them
  // by name (no new registrations) so cache hits can charge them without
  // walking.
  hist_passes_ = &registry_->histogram("asic.passes");
  ctr_asic_packets_ = &registry_->counter("asic.packets");
  ctr_asic_drops_ = &registry_->counter("asic.drops");
  for (unsigned pipe = 0; pipe < 4; ++pipe) {
    const std::string base = "asic.pipe" + std::to_string(pipe);
    ctr_asic_ingress_[pipe] = &registry_->counter(base + ".ingress.packets");
    ctr_asic_egress_[pipe] = &registry_->counter(base + ".egress.packets");
  }
}

unsigned XgwH::shard_of_vni(net::Vni vni) {
  return static_cast<unsigned>(net::mix64(vni) & 1u);
}

unsigned XgwH::shard_of(net::Vni vni) const {
  return config_.compression.split ? shard_of_vni(vni) : 0u;
}

XgwH::Shard& XgwH::shard_for(net::Vni vni) { return shards_[shard_of(vni)]; }
const XgwH::Shard& XgwH::shard_for(net::Vni vni) const {
  return shards_[shard_of(vni)];
}

dataplane::BatchResult XgwH::apply(const dataplane::TableOpBatch& batch) {
  dataplane::BatchResult result;
  for (const dataplane::TableOp& op : batch.ops) {
    dataplane::TableOpStatus status = dataplane::TableOpStatus::kNotFound;
    switch (op.kind) {
      case dataplane::TableOp::Kind::kAddRoute:
        status = apply_install_route(op.vni, op.prefix, op.route_action);
        break;
      case dataplane::TableOp::Kind::kDelRoute:
        status = apply_remove_route(op.vni, op.prefix);
        break;
      case dataplane::TableOp::Kind::kAddMapping:
        status = apply_install_mapping(op.mapping_key, op.mapping_action);
        break;
      case dataplane::TableOp::Kind::kDelMapping:
        status = apply_remove_mapping(op.mapping_key);
        break;
    }
    // Re-inserts can change the action payload too, so a duplicate
    // invalidates as well.
    if (dataplane::succeeded(status)) {
      generations_.note(op, shards_[0].mappings.ip32(op.mapping_key.vm_ip),
                        ++op_epoch_);
    }
    result.record(status, op_epoch_);
  }
  return result;
}

dataplane::TableOpStatus XgwH::apply_install_route(
    net::Vni vni, const net::IpPrefix& prefix,
    tables::VxlanRouteAction action) {
  Shard& shard = shard_for(vni);
  const bool is_new = shard.routes.insert(vni, prefix, action);
  if (is_new) {
    (prefix.family() == net::IpFamily::kV4 ? shard.routes_v4
                                           : shard.routes_v6)++;
  }
  return is_new ? dataplane::TableOpStatus::kOk
                : dataplane::TableOpStatus::kDuplicate;
}

dataplane::TableOpStatus XgwH::apply_remove_route(net::Vni vni,
                                                  const net::IpPrefix& prefix) {
  Shard& shard = shard_for(vni);
  if (!shard.routes.erase(vni, prefix)) {
    return dataplane::TableOpStatus::kNotFound;
  }
  (prefix.family() == net::IpFamily::kV4 ? shard.routes_v4
                                         : shard.routes_v6)--;
  return dataplane::TableOpStatus::kOk;
}

dataplane::TableOpStatus XgwH::apply_install_mapping(
    const tables::VmNcKey& key, tables::VmNcAction action) {
  Shard& shard = shard_for(key.vni);
  const std::size_t before =
      shard.mappings.stats().main_entries +
      shard.mappings.stats().conflict_entries;
  if (!shard.mappings.insert(key, action)) {
    // The digest table only rejects when the main bucket and the conflict
    // store are both unable to take the entry.
    return dataplane::TableOpStatus::kCapacityExceeded;
  }
  const std::size_t after = shard.mappings.stats().main_entries +
                            shard.mappings.stats().conflict_entries;
  if (after > before) {
    (key.vm_ip.is_v4() ? shard.maps_v4 : shard.maps_v6)++;
    return dataplane::TableOpStatus::kOk;
  }
  return dataplane::TableOpStatus::kDuplicate;
}

dataplane::TableOpStatus XgwH::apply_remove_mapping(
    const tables::VmNcKey& key) {
  Shard& shard = shard_for(key.vni);
  if (!shard.mappings.erase(key)) return dataplane::TableOpStatus::kNotFound;
  (key.vm_ip.is_v4() ? shard.maps_v4 : shard.maps_v6)--;
  return dataplane::TableOpStatus::kOk;
}

void XgwH::add_acl_rule(tables::AclRule rule) {
  acl_.add(std::move(rule));
  invalidate_fast_path();
}

bool XgwH::has_route(net::Vni vni, const net::IpPrefix& prefix) const {
  return shard_for(vni).routes.find(vni, prefix) != nullptr;
}

bool XgwH::has_mapping(const tables::VmNcKey& key) const {
  return shard_for(key.vni)
      .mappings.lookup(key.vni, key.vm_ip)
      .has_value();
}

std::size_t XgwH::route_count() const {
  return shards_[0].routes.size() + shards_[1].routes.size();
}

std::size_t XgwH::mapping_count() const {
  const auto s0 = shards_[0].mappings.stats();
  const auto s1 = shards_[1].mappings.stats();
  return s0.main_entries + s0.conflict_entries + s1.main_entries +
         s1.conflict_entries;
}

void XgwH::build_program() {
  // The stages index the PHV by Field: each field is a fixed slot.
  static_assert(std::size(kFieldBits) == kFieldCount);
  static_assert(kFieldCount <= asic::kMaxPhvFields);

  // The stages each gress runs, in walk order, from the program's one
  // description (asic::kGatewayProgram; index g is PathSlot g: entry
  // ingress, loopback egress, loopback ingress, exit egress). Unfolded,
  // the entry ingress runs the whole lookup chain and the loopback gresses
  // are empty. The Walker binding and the path table below both read it.
  const bool folded = config_.compression.fold;
  std::array<std::vector<Stage>, 4> gresses;
  for (std::size_t s = 0; s < std::size(asic::kGatewayProgram); ++s) {
    auto g = static_cast<std::size_t>(asic::kGatewayProgram[s].gress);
    if (!folded && g < 3) g = 0;
    gresses[g].push_back(static_cast<Stage>(s));
  }

  // The stage bodies, indexed by Stage.
  const asic::StageFn bodies[] = {
      asic::bind_stage<&XgwH::stage_entry>(this),
      asic::bind_stage<&XgwH::stage_acl>(this),
      asic::bind_stage<&XgwH::stage_route_lookup>(this),
      asic::bind_stage<&XgwH::stage_vm_nc_lookup>(this),
      asic::bind_stage<&XgwH::stage_rewrite>(this)};
  static_assert(std::size(bodies) == std::size(asic::kGatewayProgram));
  auto bind = [&bodies](const std::vector<Stage>& gress) {
    asic::GressProgram program;
    for (const Stage stage : gress) {
      program.stages.push_back(bodies[static_cast<std::size_t>(stage)]);
    }
    return program;
  };
  // Folded, pipes 1/3 are the loopback pipes and 0/2 the entry/exit
  // pipes. Unfolded, every pipe runs the full program in one pass and the
  // tables are not sharded (shard 0 holds everything). Pipes with one role
  // share one bound program, so the Walker sweeps their packets together.
  const std::vector<unsigned> entry =
      folded ? std::vector<unsigned>{0, 2} : std::vector<unsigned>{0, 1, 2, 3};
  program_.set_ingress(entry, bind(gresses[0]));
  program_.set_egress(entry, bind(gresses[3]));
  if (folded) {
    constexpr unsigned kLoopback[] = {1, 3};
    program_.set_egress(kLoopback, bind(gresses[1]));
    program_.set_ingress(kLoopback, bind(gresses[2]));
    for (const unsigned pipe : kLoopback) program_.set_loopback(pipe, true);
  }

  // What each outcome path is, indexed by Path: the stage that decides it
  // (kRewrite: the packet leaves), its drop reason or action, the fields
  // its route stage bridges and its VM-NC stage adds, and the one table
  // counter it bumps besides route hits.
  struct PathSpec {
    Stage last;
    dataplane::DropReason drop;
    dataplane::Action action;
    unsigned route_fields;
    unsigned vm_fields;
    telemetry::Counter* table_counter;
  };
  using dataplane::Action;
  using dataplane::DropReason;
  constexpr unsigned kFallbackVerdict = 1u << kFallback | 1u << kResolvedVni;
  constexpr unsigned kScopeVerdict = kFallbackVerdict | 1u << kScope;
  constexpr unsigned kTunnelVerdict = kScopeVerdict | 1u << kTunnelIp;
  const std::array<PathSpec, kPathCount> specs = {{
      {kEntry, DropReason::kInvalidVni, Action::kDrop, 0, 0, nullptr},
      {kAcl, DropReason::kAclDeny, Action::kDrop, 0, 0, ctr_acl_deny_},
      {kRoute, DropReason::kPeerResolutionLoop, Action::kDrop, 0, 0, nullptr},
      {kRewrite, DropReason::kNone, Action::kFallbackToX86, kFallbackVerdict,
       0, ctr_route_miss_},  // route miss
      {kRewrite, DropReason::kNone, Action::kFallbackToX86, kFallbackVerdict,
       0, nullptr},  // internet
      {kRewrite, DropReason::kNone, Action::kForwardTunnel, kTunnelVerdict, 0,
       nullptr},
      {kRewrite, DropReason::kNone, Action::kFallbackToX86, kScopeVerdict, 0,
       ctr_vm_miss_},  // VM miss
      {kRewrite, DropReason::kNone, Action::kForwardToNc, kScopeVerdict,
       1u << kNcIp, ctr_vm_hit_},
  }};

  // Walk each path through the gress layout. A path visits every gress up
  // to the one holding its deciding stage; each completed egress is a
  // pass; each crossing it makes carries exactly the fields bridged in
  // the gress it leaves (the Phv drops a field not re-bridged since the
  // previous crossing). The entry stage bridges the shard bit, the route
  // stage its verdict, and the VM-NC stage re-bridges that verdict plus
  // what it adds.
  for (std::size_t p = 0; p < kPathCount; ++p) {
    const PathSpec& spec = specs[p];
    PathInfo& info = paths_[p];
    info.drop = spec.drop;
    info.action = spec.action;
    info.table_counter = spec.table_counter;
    for (unsigned g = 0; g < gresses.size(); ++g) {
      if (gresses[g].empty()) continue;
      info.visits |= static_cast<std::uint8_t>(1u << g);
      unsigned bridged = 0;
      bool decided = false;
      for (const Stage stage : gresses[g]) {
        if (stage == kEntry) bridged |= 1u << kShard;
        if (stage == kRoute) bridged |= spec.route_fields;
        if (stage == kVmNc) bridged |= spec.route_fields | spec.vm_fields;
        if (stage == spec.last) {
          decided = true;
          break;
        }
      }
      if (g % 2 == 1) ++info.passes;  // gresses 1 and 3 are egress
      if (decided) break;
      for (unsigned field = 0; field < kFieldCount; ++field) {
        if (bridged & 1u << field) {
          info.bridged_bits += kFieldBits[field];
        }
      }
    }
  }
}

void XgwH::set_field(asic::PacketContext& ctx, Field field,
                     std::uint64_t value, bool bridged) const {
  ctx.meta.set(field, value, kFieldBits[field], bridged);
}

void XgwH::drop_on(asic::PacketContext& ctx, Path path) {
  record_of(ctx).path = path;
  const dataplane::DropReason reason = path_info(path).drop;
  // dataplane::name() strings have static storage: a drop never allocates.
  ctx.drop(dataplane::name(reason), static_cast<std::uint8_t>(reason));
}

void XgwH::stage_entry(asic::ContextGroup group) {
  for (asic::PacketContext* ctx : group) {
    const net::Vni vni = ctx->packet->vni;
    if (vni > net::kMaxVni) {
      drop_on(*ctx, Path::kInvalidVni);
      continue;
    }
    const unsigned shard = shard_of(vni);
    set_field(*ctx, kShard, shard);
    if (config_.compression.fold) {
      // Steer through the loopback pipe owning this shard (Fig. 14).
      ctx->egress_pipe = 1 + 2 * shard;
    }
  }
}

void XgwH::stage_acl(asic::ContextGroup group) {
  std::uint64_t denied = 0;
  for (asic::PacketContext* ctx : group) {
    if (acl_.evaluate(ctx->packet->vni, ctx->packet->inner) ==
        tables::AclVerdict::kDeny) {
      ++denied;
      drop_on(*ctx, Path::kAclDeny);
    }
  }
  ctr_acl_deny_->add(denied);
}

void XgwH::stage_route_lookup(asic::ContextGroup group) {
  // Iterative lookup until the scope leaves "Peer" (Fig. 2's walkthrough),
  // one software-pipelined sweep per peer hop: build every pooled key and
  // prepare them all (TCAM directory probe + SRAM bucket prefetch), then
  // resolve them — each bucket's DRAM fetch hides behind the other keys'
  // directory probes. Each hop resolves in the shard owning the *current*
  // VNI: peered VPCs can land on different parities, in which case a
  // hardware implementation recirculates the packet through the sibling
  // loopback pipe (rare; peer hops are a thin slice of traffic) or the
  // controller co-shards the peer group. The functional model reads the
  // sibling shard directly.
  BatchScratch& w = batch_;
  w.work.clear();
  for (asic::PacketContext* ctx : group) {
    w.work.push_back({ctx, ctx->packet->vni});
  }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int hop = 0; hop < 4 && !w.work.empty(); ++hop) {
    // Split the worklist by shard, so each shard's ALPM sweeps one
    // contiguous key span (the directory sweep hashes and prefetches it
    // depth-major).
    for (unsigned s = 0; s < 2; ++s) {
      w.shard_hops[s].clear();
      w.shard_keys[s].clear();
    }
    for (const BatchScratch::Hop& h : w.work) {
      const unsigned s = shard_of(h.vni);
      w.shard_hops[s].push_back(h);
      w.shard_keys[s].push_back(
          tables::make_pooled_key(h.vni, h.ctx->packet->inner.dst));
    }
    for (unsigned s = 0; s < 2; ++s) {
      w.shard_parts[s].resize(w.shard_keys[s].size());
      shards_[s].routes.lookup_prepare_batch(w.shard_keys[s],
                                             w.shard_parts[s]);
    }
    w.next.clear();
    for (unsigned s = 0; s < 2; ++s) {
      for (std::size_t t = 0; t < w.shard_hops[s].size(); ++t) {
        const BatchScratch::Hop& h = w.shard_hops[s][t];
        asic::PacketContext& ctx = *h.ctx;
        CachedWalk& walk = record_of(ctx);
        const auto route = shards_[s].routes.lookup_resolve(
            w.shard_keys[s][t], w.shard_parts[s][t]);
        (route ? hits : misses)++;
        if (route) ++walk.route_hits;
        if (route && route->scope == tables::RouteScope::kPeer) {
          w.next.push_back({h.ctx, route->next_hop_vni});
          continue;
        }
        set_field(ctx, kResolvedVni, h.vni);
        // A miss falls back to XGW-x86, which holds the long-tail/volatile
        // tables: steer, don't drop. So does an internet route: SNAT
        // happens at XGW-x86 (Fig. 11).
        if (!route || route->scope == tables::RouteScope::kInternet) {
          walk.path = route ? Path::kInternet : Path::kRouteMiss;
          set_field(ctx, kFallback, 1);
          continue;
        }
        set_field(ctx, kScope, static_cast<std::uint64_t>(route->scope));
        set_field(ctx, kFallback, 0);
        if (route->scope == tables::RouteScope::kLocal) {
          walk.path = Path::kLocal;  // unless the VM-NC stage misses
        } else {  // IDC or cross-region
          walk.path = Path::kTunnel;
          set_field(ctx, kTunnelIp, route->remote_endpoint.value());
        }
      }
    }
    std::swap(w.work, w.next);
  }
  ctr_route_hit_->add(hits);
  ctr_route_miss_->add(misses);
  // Hop budget exhausted with peers still pending: the route stage drops.
  for (const BatchScratch::Hop& h : w.work) drop_on(*h.ctx, Path::kPeerLoop);
}

void XgwH::stage_vm_nc_lookup(asic::ContextGroup group) {
  BatchScratch& w = batch_;
  w.work.clear();
  for (asic::PacketContext* ctx : group) {
    // Re-bridge the routing verdict across the remaining crossings.
    for (Field field : {kScope, kFallback, kResolvedVni, kTunnelIp}) {
      ctx->meta.bridge(field);
    }
    if (config_.compression.fold) {
      // Exit through the entry-side pipe paired with this loopback pipe.
      ctx->egress_pipe =
          exit_pipe(/*entry_pipe=*/0, /*loopback_pipe=*/ctx->pipe);
    }
    // Fallback and tunnel verdicts skip the lookup. Like the route stage,
    // the mapping lives in the *resolved* VNI's shard.
    if (ctx->meta.get_or(kFallback) == 0 &&
        static_cast<tables::RouteScope>(ctx->meta.get_or(kScope)) ==
            tables::RouteScope::kLocal) {
      w.work.push_back(
          {ctx, static_cast<net::Vni>(ctx->meta.get_or(kResolvedVni))});
    }
  }

  // Prefetch the mapping buckets a strip at a time, then look the strip
  // up. Strips keep the prefetched lines L1-resident — prefetching the
  // whole burst up front left the early lines evicted by the time the
  // lookup loop reached them.
  std::uint64_t misses = 0;
  constexpr std::size_t kStrip = BatchScratch::kVmStrip;
  for (std::size_t s0 = 0; s0 < w.work.size(); s0 += kStrip) {
    const std::size_t s1 = std::min(s0 + kStrip, w.work.size());
    for (std::size_t j = s0; j < s1; ++j) {
      const BatchScratch::Hop& h = w.work[j];
      shards_[shard_of(h.vni)].mappings.prefetch(h.vni,
                                                 h.ctx->packet->inner.dst);
    }
    for (std::size_t j = s0; j < s1; ++j) {
      const BatchScratch::Hop& h = w.work[j];
      asic::PacketContext& ctx = *h.ctx;
      if (const auto mapping = shards_[shard_of(h.vni)].mappings.lookup(
              h.vni, ctx.packet->inner.dst)) {
        set_field(ctx, kNcIp, mapping->nc_ip.value());
        continue;
      }
      // Mapping not in hardware (volatile entry): fall back to XGW-x86.
      ++misses;
      record_of(ctx).path = Path::kVmMiss;
      set_field(ctx, kFallback, 1);
    }
  }
  ctr_vm_hit_->add(w.work.size() - misses);
  ctr_vm_miss_->add(misses);
}

void XgwH::stage_rewrite(asic::ContextGroup group) {
  // The tunnel rewrite's outer destination goes to the walk record (the
  // outer source is always the device IP).
  for (asic::PacketContext* ctx : group) {
    std::uint32_t& outer_dst = record_of(*ctx).outer_dst;
    if (ctx->meta.get_or(kFallback) == 1) {
      outer_dst = config_.x86_next_hop.value();
      continue;
    }
    const auto scope =
        static_cast<tables::RouteScope>(ctx->meta.get_or(kScope));
    if (scope == tables::RouteScope::kIdc ||
        scope == tables::RouteScope::kCrossRegion) {
      outer_dst =
          static_cast<std::uint32_t>(ctx->meta.get_or(kTunnelIp));
      continue;
    }
    const auto nc = ctx->meta.get(kNcIp);
    if (!nc) {
      // No path reaches this; walk_contexts() rejects the walk if one
      // ever does.
      ctx->drop(
          dataplane::name(dataplane::DropReason::kNoNcResolved),
          static_cast<std::uint8_t>(dataplane::DropReason::kNoNcResolved));
      continue;
    }
    outer_dst = static_cast<std::uint32_t>(*nc);
  }
}

asic::PacketContext& XgwH::load(std::size_t i,
                                const net::OverlayPacket& packet,
                                unsigned entry_pipe) {
  asic::PacketContext& ctx = batch_.ctx[i];
  ctx.packet = &packet;
  ctx.pipe = entry_pipe;
  batch_.walk[i] = CachedWalk{};
  return ctx;
}

void XgwH::walk_contexts(std::span<asic::PacketContext* const> burst,
                         bool record_pass_hist) {
  walker_.run(burst, record_pass_hist);
  for (const asic::PacketContext* ctx : burst) {
    if (ctx->summary.drop_code !=
        static_cast<std::uint8_t>(path_info(record_of(*ctx).path).drop)) {
      throw std::logic_error("XgwH: a walk ended off the path table");
    }
  }
}

XgwH::CachedWalk XgwH::walk(const net::OverlayPacket& packet,
                            unsigned entry_pipe, asic::WalkSummary& summary,
                            bool record_pass_hist) {
  reserve(1);
  asic::PacketContext* const one[] = {&load(0, packet, entry_pipe)};
  walk_contexts(one, record_pass_hist);
  summary = batch_.ctx[0].summary;
  summary.latency_us = config_.chip.latency_us(
      summary.passes, packet.wire_size() + summary.bridged_bits / 8);
  return batch_.walk[0];
}

void XgwH::charge(Path path, unsigned entry_pipe, unsigned loopback_pipe,
                  unsigned route_hits) {
  const PathInfo& info = path_info(path);
  ctr_asic_packets_->add();
  if (info.drop != dataplane::DropReason::kNone) ctr_asic_drops_->add();
  ctr_asic_ingress_[entry_pipe]->add();  // every path enters there
  if (info.visits & bit(asic::PathSlot::kBackEgress)) {
    ctr_asic_egress_[loopback_pipe]->add();
  }
  if (info.visits & bit(asic::PathSlot::kBackIngress)) {
    ctr_asic_ingress_[loopback_pipe]->add();
  }
  if (info.visits & bit(asic::PathSlot::kFrontEgress)) {
    ctr_asic_egress_[exit_pipe(entry_pipe, loopback_pipe)]->add();
  }
  ctr_route_hit_->add(route_hits);
  if (info.table_counter != nullptr) info.table_counter->add();
}

void XgwH::finish_into(dataplane::Verdict& dest,
                       const net::OverlayPacket& packet, double now,
                       const CachedWalk& walk) {
  const PathInfo& info = path_info(walk.path);
  const bool dropped = info.drop != dataplane::DropReason::kNone;
  // The batch path hands `dest` straight from the caller's verdict array,
  // so every Verdict field is (re)assigned here — nothing may survive from
  // a previous burst's verdict in the same slot.
  dest.packet = packet;
  if (!dropped) {
    dest.packet.outer_src_ip = net::IpAddr(config_.device_ip);
    dest.packet.outer_dst_ip = net::IpAddr(net::Ipv4Addr(walk.outer_dst));
  }
  dest.software_path = false;
  // Same formula the walker applies; wire size comes from this packet, so
  // flows whose packets vary in size still get exact latencies on a hit.
  dest.latency_us = config_.chip.latency_us(
      info.passes, dest.packet.wire_size() + info.bridged_bits / 8);
  hist_latency_->record(dest.latency_us);

  if (config_.compression.fold && !dropped) {
    const unsigned loopback_pipe = loopback_pipe_of(packet.vni);
    shard_pipe_bytes_[loopback_pipe] += packet.wire_size();
    ctr_pipe_bytes_[loopback_pipe]->add(packet.wire_size());
  }

  if (dropped) {
    ctr_dropped_->add();
    dest.action = dataplane::Action::kDrop;
    dest.drop_reason = info.drop;
    return;
  }
  dest.drop_reason = dataplane::DropReason::kNone;

  if (info.action == dataplane::Action::kFallbackToX86) {
    // Overload protection before handing to the software gateway. The
    // meter is stateful, so it runs on every packet — cache hits included.
    if (!fallback_meter_.try_consume(static_cast<double>(packet.wire_size()),
                                     now)) {
      ctr_rate_limited_->add();
      ctr_dropped_->add();
      dest.action = dataplane::Action::kDrop;
      dest.drop_reason = dataplane::DropReason::kFallbackRateLimited;
      return;
    }
    ctr_fallback_->add();
    dest.action = dataplane::Action::kFallbackToX86;
    return;
  }
  ctr_forwarded_->add();
  dest.action = info.action;
}

ForwardResult XgwH::forward(const net::OverlayPacket& packet, double now) {
  // A burst of one; the chip observables follow from the walk record the
  // burst leaves in the scratch.
  ForwardResult result;
  dataplane::Verdict& verdict = result;
  const std::uint32_t index = 0;
  process_batch_indexed({&packet, 1}, {}, {&index, 1}, now, {&verdict, 1});
  const PathInfo& info = path_info(batch_.walk[0].path);
  const unsigned loopback_pipe = loopback_pipe_of(packet.vni);
  result.passes = info.passes;
  if (info.visits & bit(asic::PathSlot::kFrontEgress)) {
    result.egress_pipe =
        exit_pipe(entry_pipe_of(batch_.hash[0]), loopback_pipe);
  }
  if (config_.compression.fold) result.shard_pipe = loopback_pipe;
  return result;
}

void XgwH::process_batch_indexed(std::span<const net::OverlayPacket> packets,
                                 std::span<const std::uint64_t> flow_hashes,
                                 std::span<const std::uint32_t> indices,
                                 double now,
                                 std::span<dataplane::Verdict> out) {
  const std::size_t n = indices.size();
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: output span smaller than the packet array");
  }
  if (!flow_hashes.empty() && flow_hashes.size() != packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: flow_hashes must be empty or one per packet");
  }
  if (n == 0) return;

  BatchScratch& b = batch_;

  // Normalize hashes to one position-indexed column: the later sweeps
  // then stream it sequentially no matter how the indices stride. This
  // first walk also prefetches each packet a few positions ahead — the
  // engine's index lists stride the base array (one shard keeps every
  // N-th packet), which defeats the hardware streamer, so the first
  // touch of every packet would otherwise stall on L3; the later phases
  // then re-touch the burst L2-warm.
  // The same pass sums the burst's bytes and rejects an out-of-range
  // index before any state changes.
  constexpr std::size_t kAhead = 8;
  b.hash.resize(n);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n && indices[i + kAhead] < packets.size()) {
      const char* p =
          reinterpret_cast<const char*>(&packets[indices[i + kAhead]]);
      __builtin_prefetch(p);
      __builtin_prefetch(p + 64);
    }
    const std::uint32_t k = indices[i];
    if (k >= packets.size()) {
      throw std::out_of_range(
          "process_batch_indexed: index past the packet array");
    }
    b.hash[i] = flow_hashes.empty() ? packets[k].inner.hash() : flow_hashes[k];
    bytes += packets[k].wire_size();
  }
  ctr_packets_in_->add(n);
  ctr_bytes_in_->add(bytes);

  reserve(n);
  b.burst.clear();

  if (flow_cache_.enabled()) {
    b.key.resize(n);
    // Phase 1: derive every cache key from the precomputed flow hash and
    // issue its slot prefetch — by the time phase 2 probes slot i, the
    // line has had n-i probes' worth of time to arrive.
    for (std::size_t i = 0; i < n; ++i) {
      b.key[i] = dataplane::make_flow_key(packets[indices[i]].vni, b.hash[i]);
      flow_cache_.prefetch(b.key[i]);
    }
    // Phase 2: probe in strict packet order — find/note_miss/insert
    // mutate cache stats and admission state, and their sequence is part
    // of the byte-identity contract. A capture miss walks at once (a burst
    // of one), so a later packet of its flow in this burst hits; other
    // misses defer to the burst walk. Counters commute, so where a packet
    // is charged does not matter. The read-set stamp (an ip32 digest and
    // three slot loads) is taken only where it is read: by a find on an
    // allocated table, or by an insert. A find on an unallocated table
    // misses without reading it.
    for (std::size_t i = 0; i < n; ++i) {
      const net::OverlayPacket& packet = packets[indices[i]];
      const unsigned entry_pipe = entry_pipe_of(b.hash[i]);
      const bool stamped = flow_cache_.allocated();
      const std::uint64_t gen =
          stamped ? generation_of(packet.vni, packet.inner.dst) : 0;
      if (const CachedWalk* hit = flow_cache_.find(b.key[i], gen)) {
        b.walk[i] = *hit;  // copy: the pointer dies at the next insert
        charge(hit->path, entry_pipe, loopback_pipe_of(packet.vni),
               hit->route_hits);
        continue;
      }
      asic::PacketContext& ctx = load(i, packet, entry_pipe);
      if (flow_cache_.note_miss(b.key[i])) {
        asic::PacketContext* const one[] = {&ctx};
        walk_contexts(one, /*record_pass_hist=*/false);
        flow_cache_.insert(
            b.key[i],
            stamped ? gen : generation_of(packet.vni, packet.inner.dst),
            b.walk[i]);
      } else {
        b.burst.push_back(&ctx);
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      b.burst.push_back(
          &load(i, packets[indices[i]], entry_pipe_of(b.hash[i])));
    }
  }
  // The deferred misses walk as one Walker burst (none when every packet
  // hit or captured: a scalar forward() then skips the empty run).
  if (!b.burst.empty()) walk_contexts(b.burst, /*record_pass_hist=*/false);

  // Phase 3: emit verdicts in packet order. Histogram records and the
  // stateful fallback meter live here, so their streams are sample-for-
  // sample what the scalar loop produces (no walk above recorded its
  // "asic.passes" sample).
  for (std::size_t i = 0; i < n; ++i) {
    // The verdict slots are write-allocated on first touch and the index
    // stride defeats the hardware streamer — hint them in ahead.
    if (i + 4 < n) {
      char* slot = reinterpret_cast<char*>(&out[indices[i + 4]]);
      __builtin_prefetch(slot, 1);
      __builtin_prefetch(slot + 64, 1);
      __builtin_prefetch(slot + 128, 1);
    }
    hist_passes_->record(path_info(b.walk[i].path).passes);
    // In-place emission: finish_into writes every Verdict field, so the
    // slot needs no clearing and no ForwardResult temporary is copied.
    finish_into(out[indices[i]], packets[indices[i]], now, b.walk[i]);
  }
}

asic::GatewayWorkload XgwH::live_workload() const {
  asic::GatewayWorkload w{};
  w.vxlan_routes_v4 = shards_[0].routes_v4 + shards_[1].routes_v4;
  w.vxlan_routes_v6 = shards_[0].routes_v6 + shards_[1].routes_v6;
  w.vm_maps_v4 = shards_[0].maps_v4 + shards_[1].maps_v4;
  w.vm_maps_v6 = shards_[0].maps_v6 + shards_[1].maps_v6;
  w.digest_conflicts = shards_[0].mappings.stats().conflict_entries +
                       shards_[1].mappings.stats().conflict_entries;
  // Physical TCAM rows, port-range expansion included.
  w.acl_rules = acl_.tcam_rows();
  return w;
}

asic::OccupancyReport XgwH::occupancy_report() const {
  asic::CompressionConfig compression = config_.compression;
  if (compression.alpm) {
    const auto s0 = shards_[0].routes.stats();
    const auto s1 = shards_[1].routes.stats();
    compression.measured_alpm = asic::AlpmDemand{
        s0.directory_slices + s1.directory_slices,
        s0.allocated_bucket_words + s1.allocated_bucket_words};
  }
  return asic::Placer(config_.chip).evaluate(live_workload(), compression);
}

double XgwH::max_throughput_bps() const {
  const unsigned active = config_.compression.fold ? 2 : 4;
  return config_.chip.throughput_bps(active);
}

double XgwH::max_packet_rate_pps() const {
  const unsigned active = config_.compression.fold ? 2 : 4;
  return config_.chip.packet_rate_pps(active);
}

}  // namespace sf::xgwh

#include "xgwh/xgwh.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/hash.hpp"

namespace sf::xgwh {
namespace {

// Metadata field names used across gresses. Widths reflect what a P4
// program would carry in its bridged header. build_program() interns each
// name to a dense FieldId once; the per-packet stages below only ever
// index the PHV slot array.
constexpr const char* kShard = "shard";              // 1 bit
constexpr const char* kScope = "scope";              // 3 bits
constexpr const char* kFallback = "fallback";        // 1 bit
constexpr const char* kResolvedVni = "resolved_vni"; // 24 bits
constexpr const char* kTunnelIp = "tunnel_ip";       // 32 bits
constexpr const char* kNcIp = "nc_ip";               // 32 bits
constexpr const char* kAction = "fwd_action";        // 2 bits

constexpr std::uint64_t kActForward = 0;
constexpr std::uint64_t kActTunnel = 1;
constexpr std::uint64_t kActFallback = 2;

// Drops carry the typed reason through the gateway-agnostic asic layer as
// a (static note, code) pair; forward() recovers the enum from the code.
// dataplane::name() strings have static storage, so this never allocates.
void drop_with(asic::PacketContext& ctx, dataplane::DropReason reason) {
  ctx.drop(dataplane::name(reason), static_cast<std::uint8_t>(reason));
}

dataplane::DropReason reason_from_code(std::uint8_t code) {
  // Code 0 means the asic layer itself aborted (no stage gave a reason).
  if (code == 0 ||
      code > static_cast<std::uint8_t>(dataplane::DropReason::kUnhandledScope)) {
    return dataplane::DropReason::kPipelineFault;
  }
  return static_cast<dataplane::DropReason>(code);
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
      program_(config_.chip.pipelines),
      flow_cache_(dataplane::FlowCache<CachedWalk>::Config{
          config_.flow_cache_entries}) {
  if (config_.chip.pipelines != 4) {
    throw std::invalid_argument("XGW-H expects a 4-pipeline chip");
  }
  fallback_meter_index_ = fallback_meter_.add(tables::MeterTable::Config{
      config_.fallback_rate_bps, config_.fallback_burst_bytes});
  build_program();
  walker_ = std::make_unique<asic::Walker>(config_.chip, &program_);

  registry_ = std::make_unique<telemetry::Registry>();
  walker_->set_registry(registry_.get());
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
  // The walker registered "asic.passes" in set_registry() above; a cache
  // hit replays the per-walk record into the same histogram.
  hist_passes_ = &registry_->histogram("asic.passes");
  // Same deal for the walker's packet counters: resolved by name (no new
  // registrations) so the SoA batch walk can bump them in bulk.
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
    result.record(status, op_epoch_);
  }
  return result;
}

void XgwH::note_vni_mutation(net::Vni vni) {
  ++op_epoch_;
  if (peered_vnis_.count(vni) > 0) {
    ++global_gen_;
  } else {
    ++vni_gens_[vni];
  }
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
  // Re-inserts can change the action payload too, so invalidate either
  // way. A peer route welds both VNIs' cache fates together permanently.
  if (action.scope == tables::RouteScope::kPeer) {
    peered_vnis_.insert(vni);
    peered_vnis_.insert(action.next_hop_vni);
    ++op_epoch_;
    ++global_gen_;
  } else {
    note_vni_mutation(vni);
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
  note_vni_mutation(vni);
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
  note_vni_mutation(key.vni);
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
  note_vni_mutation(key.vni);
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
  // Compile step: intern every metadata field name once. The stages below
  // only touch the PHV through these dense ids — no string hashing per
  // packet. freeze() turns any runtime intern into a hard error.
  asic::PhvLayout& layout = program_.phv_layout();
  fid_shard_ = layout.intern(kShard);
  fid_scope_ = layout.intern(kScope);
  fid_fallback_ = layout.intern(kFallback);
  fid_resolved_vni_ = layout.intern(kResolvedVni);
  fid_tunnel_ip_ = layout.intern(kTunnelIp);
  fid_nc_ip_ = layout.intern(kNcIp);
  fid_action_ = layout.intern(kAction);
  layout.freeze();

  const bool folded = config_.compression.fold;
  auto bind = [this](void (XgwH::*fn)(asic::PacketContext&)) {
    return [this, fn](asic::PacketContext& ctx) { (this->*fn)(ctx); };
  };
  auto bind_shard = [this](void (XgwH::*fn)(asic::PacketContext&, unsigned),
                           unsigned shard) {
    return [this, fn, shard](asic::PacketContext& ctx) {
      (this->*fn)(ctx, shard);
    };
  };

  if (folded) {
    // Entry pipes 0/2: ACL + shard steering.
    for (unsigned pipe : {0u, 2u}) {
      asic::GressProgram entry{"entry", {bind(&XgwH::stage_entry),
                                         bind(&XgwH::stage_acl)}};
      program_.set_ingress(pipe, std::move(entry));
      program_.set_egress(
          pipe, asic::GressProgram{"rewrite", {bind(&XgwH::stage_rewrite)}});
      program_.set_loopback(pipe, false);
    }
    // Loopback pipes 1/3: shard-local route + VM-NC lookups.
    for (unsigned shard : {0u, 1u}) {
      const unsigned pipe = 1 + 2 * shard;
      program_.set_egress(
          pipe, asic::GressProgram{
                    "route",
                    {bind_shard(&XgwH::stage_route_lookup, shard)}});
      program_.set_ingress(
          pipe, asic::GressProgram{
                    "vm_nc",
                    {bind_shard(&XgwH::stage_vm_nc_lookup, shard)}});
      program_.set_loopback(pipe, true);
    }
  } else {
    // Unfolded: the full program in one pass on every pipe; tables are not
    // sharded (shard 0 holds everything).
    for (unsigned pipe = 0; pipe < config_.chip.pipelines; ++pipe) {
      program_.set_ingress(
          pipe, asic::GressProgram{
                    "full",
                    {bind(&XgwH::stage_entry), bind(&XgwH::stage_acl),
                     bind_shard(&XgwH::stage_route_lookup, 0),
                     bind_shard(&XgwH::stage_vm_nc_lookup, 0)}});
      program_.set_egress(
          pipe, asic::GressProgram{"rewrite", {bind(&XgwH::stage_rewrite)}});
      program_.set_loopback(pipe, false);
    }
  }
}

void XgwH::stage_entry(asic::PacketContext& ctx) {
  if (ctx.packet.vni > net::kMaxVni) {
    drop_with(ctx, dataplane::DropReason::kInvalidVni);
    return;
  }
  const unsigned shard = shard_of(ctx.packet.vni);
  ctx.meta.set(fid_shard_, shard, 1, /*bridged=*/true);
  if (config_.compression.fold) {
    // Steer through the loopback pipe owning this shard (Fig. 14).
    ctx.egress_pipe = 1 + 2 * shard;
  }
}

void XgwH::stage_acl(asic::PacketContext& ctx) {
  if (acl_.evaluate(ctx.packet.vni, ctx.packet.inner) ==
      tables::AclVerdict::kDeny) {
    ctr_acl_deny_->add();
    drop_with(ctx, dataplane::DropReason::kAclDeny);
  }
}

void XgwH::stage_route_lookup(asic::PacketContext& ctx, unsigned shard) {
  (void)shard;  // the pipe this stage runs in; see the note below
  net::Vni vni = ctx.packet.vni;
  // Iterative lookup until the scope leaves "Peer" (Fig. 2's walkthrough).
  // Each hop resolves in the shard owning the *current* VNI: peered VPCs
  // can land on different parities, in which case a hardware
  // implementation recirculates the packet through the sibling loopback
  // pipe (rare; peer hops are a thin slice of traffic) or the controller
  // co-shards the peer group. The functional model reads the sibling
  // shard directly.
  for (int hop = 0; hop < 4; ++hop) {
    auto route = shards_[shard_of(vni)].routes.lookup(vni,
                                                      ctx.packet.inner.dst);
    (route ? ctr_route_hit_ : ctr_route_miss_)->add();
    if (!route) {
      // Long-tail/volatile tables live in XGW-x86: steer, don't drop.
      ctx.meta.set(fid_fallback_, 1, 1, true);
      ctx.meta.set(fid_resolved_vni_, vni, 24, true);
      return;
    }
    switch (route->scope) {
      case tables::RouteScope::kLocal:
        ctx.meta.set(fid_scope_, static_cast<std::uint64_t>(route->scope), 3,
                     true);
        ctx.meta.set(fid_fallback_, 0, 1, true);
        ctx.meta.set(fid_resolved_vni_, vni, 24, true);
        return;
      case tables::RouteScope::kPeer:
        vni = route->next_hop_vni;
        continue;
      case tables::RouteScope::kIdc:
      case tables::RouteScope::kCrossRegion:
        ctx.meta.set(fid_scope_, static_cast<std::uint64_t>(route->scope), 3,
                     true);
        ctx.meta.set(fid_fallback_, 0, 1, true);
        ctx.meta.set(fid_resolved_vni_, vni, 24, true);
        ctx.meta.set(fid_tunnel_ip_, route->remote_endpoint.value(), 32,
                     true);
        return;
      case tables::RouteScope::kInternet:
        // South-north: SNAT happens at XGW-x86 (Fig. 11).
        ctx.meta.set(fid_fallback_, 1, 1, true);
        ctx.meta.set(fid_resolved_vni_, vni, 24, true);
        return;
    }
  }
  drop_with(ctx, dataplane::DropReason::kPeerResolutionLoop);
}

void XgwH::stage_vm_nc_lookup(asic::PacketContext& ctx, unsigned shard) {
  // Re-bridge the routing verdict across the remaining crossings.
  for (asic::FieldId field :
       {fid_scope_, fid_fallback_, fid_resolved_vni_, fid_tunnel_ip_}) {
    ctx.meta.bridge(field);
  }
  if (config_.compression.fold) {
    // Exit through the entry-side pipe paired with this loopback pipe
    // (Ingress 1 -> Egress 0, Ingress 3 -> Egress 2; Fig. 13).
    ctx.egress_pipe = ctx.pipe == 1 ? 0 : 2;
  }

  if (ctx.meta.get_or(fid_fallback_) == 1) return;
  const auto scope =
      static_cast<tables::RouteScope>(ctx.meta.get_or(fid_scope_));
  if (scope != tables::RouteScope::kLocal) return;  // tunnel scopes skip

  const net::Vni vni =
      static_cast<net::Vni>(ctx.meta.get_or(fid_resolved_vni_));
  // Like the route stage: the mapping lives in the resolved VNI's shard.
  (void)shard;
  auto mapping =
      shards_[shard_of(vni)].mappings.lookup(vni, ctx.packet.inner.dst);
  (mapping ? ctr_vm_hit_ : ctr_vm_miss_)->add();
  if (!mapping) {
    // Mapping not in hardware (volatile entry): fall back to XGW-x86.
    ctx.meta.set(fid_fallback_, 1, 1, true);
    return;
  }
  ctx.meta.set(fid_nc_ip_, mapping->nc_ip.value(), 32, true);
}

void XgwH::stage_rewrite(asic::PacketContext& ctx) {
  ctx.packet.outer_src_ip = net::IpAddr(config_.device_ip);
  if (ctx.meta.get_or(fid_fallback_) == 1) {
    ctx.packet.outer_dst_ip = net::IpAddr(config_.x86_next_hop);
    ctx.meta.set(fid_action_, kActFallback, 2);
    return;
  }
  const auto scope =
      static_cast<tables::RouteScope>(ctx.meta.get_or(fid_scope_));
  if (scope == tables::RouteScope::kIdc ||
      scope == tables::RouteScope::kCrossRegion) {
    ctx.packet.outer_dst_ip = net::IpAddr(net::Ipv4Addr(
        static_cast<std::uint32_t>(ctx.meta.get_or(fid_tunnel_ip_))));
    ctx.meta.set(fid_action_, kActTunnel, 2);
    return;
  }
  auto nc = ctx.meta.get(fid_nc_ip_);
  if (!nc) {
    drop_with(ctx, dataplane::DropReason::kNoNcResolved);
    return;
  }
  ctx.packet.outer_dst_ip =
      net::IpAddr(net::Ipv4Addr(static_cast<std::uint32_t>(*nc)));
  ctx.meta.set(fid_action_, kActForward, 2);
}

void XgwH::snapshot_walk_counters() {
  // The counter set is fixed after construction in practice; re-scan only
  // if something registered extra counters since the last walk.
  if (tracked_counters_.size() != registry_->counter_count()) {
    tracked_counters_.clear();
    tracked_counters_.reserve(registry_->counter_count());
    registry_->for_each_counter(
        [this](const std::string&, telemetry::Counter& counter) {
          tracked_counters_.push_back(&counter);
        });
  }
  walk_baseline_.resize(tracked_counters_.size());
  for (std::size_t i = 0; i < tracked_counters_.size(); ++i) {
    walk_baseline_[i] = tracked_counters_[i]->value();
  }
}

XgwH::CachedWalk XgwH::summarize_walk(const asic::PacketContext& ctx,
                                      const asic::WalkSummary& walked,
                                      bool capture_deltas) {
  CachedWalk walk;
  walk.dropped = walked.dropped;
  walk.drop_code = walked.drop_code;
  walk.act = static_cast<std::uint8_t>(
      ctx.meta.get_or(fid_action_, kActForward));
  // stage_rewrite is the only stage that mutates the packet: it writes
  // outer_src unconditionally, then outer_dst unless it drops first
  // (kNoNcResolved). Whether the rewrite ran is a property of the walk
  // path, so it caches with the verdict.
  walk.set_outer_src =
      !walked.dropped ||
      walked.drop_code ==
          static_cast<std::uint8_t>(dataplane::DropReason::kNoNcResolved);
  walk.set_outer_dst = !walked.dropped;
  walk.outer_src = ctx.packet.outer_src_ip;
  walk.outer_dst = ctx.packet.outer_dst_ip;
  walk.passes = static_cast<std::uint8_t>(walked.passes);
  walk.egress_pipe = static_cast<std::uint8_t>(walked.egress_pipe);
  walk.bridged_bits = static_cast<std::uint16_t>(walked.bridged_bits);
  // Exact per-counter deltas the walk produced (stage hit/miss counts,
  // per-pipe packet counts, asic totals) — replayed verbatim on a hit so
  // telemetry snapshots cannot tell the fast path from a walk. The
  // pattern is interned: flows sharing a walk path share one delta set.
  if (capture_deltas) {
    scratch_deltas_.clear();
    for (std::size_t i = 0; i < tracked_counters_.size(); ++i) {
      const std::uint64_t delta =
          tracked_counters_[i]->value() - walk_baseline_[i];
      if (delta != 0) scratch_deltas_.push_back({tracked_counters_[i], delta});
    }
    walk.delta_set = intern_delta_set(scratch_deltas_);
  }
  return walk;
}

std::uint32_t XgwH::intern_delta_set(const std::vector<CounterDelta>& deltas) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const CounterDelta& d : deltas) {
    h ^= reinterpret_cast<std::uintptr_t>(d.counter) + 0x9E3779B97F4A7C15ull +
         (h << 6) + (h >> 2);
    h ^= d.delta + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  auto [it, fresh] =
      delta_set_index_.try_emplace(h, static_cast<std::uint32_t>(
                                          delta_sets_.size()));
  if (fresh) {
    delta_sets_.push_back(deltas);
    return it->second;
  }
  // Hash collision between distinct patterns would silently misattribute
  // counters; verify and fall back to an un-deduplicated append.
  const std::vector<CounterDelta>& existing = delta_sets_[it->second];
  const bool same =
      existing.size() == deltas.size() &&
      std::equal(existing.begin(), existing.end(), deltas.begin(),
                 [](const CounterDelta& a, const CounterDelta& b) {
                   return a.counter == b.counter && a.delta == b.delta;
                 });
  if (same) return it->second;
  delta_sets_.push_back(deltas);
  return static_cast<std::uint32_t>(delta_sets_.size() - 1);
}

void XgwH::finish_into(dataplane::Verdict& dest,
                       const net::OverlayPacket& packet, double now,
                       const CachedWalk& walk, bool replayed,
                       ForwardResult* extras) {
  if (replayed) {
    if (walk.delta_set != CachedWalk::kNoDeltaSet) {
      for (const CounterDelta& d : delta_sets_[walk.delta_set]) {
        d.counter->add(d.delta);
      }
    }
    hist_passes_->record(static_cast<double>(walk.passes));
  }

  // The batch path hands `dest` straight from the caller's verdict array,
  // so every Verdict field is (re)assigned here — nothing may survive from
  // a previous burst's verdict in the same slot.
  dest.packet = packet;
  if (walk.set_outer_src) dest.packet.outer_src_ip = walk.outer_src;
  if (walk.set_outer_dst) dest.packet.outer_dst_ip = walk.outer_dst;
  dest.software_path = false;
  if (extras != nullptr) {
    extras->passes = walk.passes;
    extras->egress_pipe = walk.egress_pipe;
  }
  // Same formula the walker applies; wire size comes from this packet, so
  // flows whose packets vary in size still get exact latencies on a hit.
  dest.latency_us = config_.chip.latency_us(
      walk.passes, dest.packet.wire_size() + walk.bridged_bits / 8);
  hist_latency_->record(dest.latency_us);

  if (config_.compression.fold) {
    const unsigned shard = shard_of(packet.vni);
    const unsigned loopback_pipe = 1 + 2 * shard;
    if (extras != nullptr) extras->shard_pipe = loopback_pipe;
    if (!walk.dropped) {
      shard_pipe_bytes_[loopback_pipe] += packet.wire_size();
      ctr_pipe_bytes_[loopback_pipe]->add(packet.wire_size());
    }
  }

  if (walk.dropped) {
    ++telemetry_.packets_dropped;
    ctr_dropped_->add();
    dest.action = dataplane::Action::kDrop;
    dest.drop_reason = reason_from_code(walk.drop_code);
    return;
  }
  dest.drop_reason = dataplane::DropReason::kNone;

  if (walk.act == kActFallback) {
    // Overload protection before handing to the software gateway. The
    // meter is stateful, so it runs on every packet — cache hits included.
    if (fallback_meter_.offer(fallback_meter_index_,
                              static_cast<double>(packet.wire_size()),
                              now) == tables::MeterColor::kRed) {
      ++telemetry_.fallback_rate_limited;
      ++telemetry_.packets_dropped;
      ctr_rate_limited_->add();
      ctr_dropped_->add();
      dest.action = dataplane::Action::kDrop;
      dest.drop_reason = dataplane::DropReason::kFallbackRateLimited;
      return;
    }
    ++telemetry_.packets_fallback;
    ctr_fallback_->add();
    dest.action = dataplane::Action::kFallbackToX86;
    return;
  }
  ++telemetry_.packets_forwarded;
  ctr_forwarded_->add();
  dest.action = walk.act == kActTunnel ? dataplane::Action::kForwardTunnel
                                       : dataplane::Action::kForwardToNc;
}

ForwardResult XgwH::finish(const net::OverlayPacket& packet, double now,
                           const CachedWalk& walk, bool replayed) {
  ForwardResult result;
  finish_into(result, packet, now, walk, replayed, &result);
  return result;
}

ForwardResult XgwH::forward(const net::OverlayPacket& packet, double now,
                            std::optional<unsigned> ingress_pipe) {
  ++telemetry_.packets_in;
  telemetry_.bytes_in += packet.wire_size();
  ctr_packets_in_->add();
  ctr_bytes_in_->add(packet.wire_size());

  // One tuple hash serves both the entry-pipe pick and the cache key (the
  // sharded engine threads the very same hash down process_batch). An
  // explicit ingress_pipe overrides the flow-hash pick, so those packets
  // bypass the cache entirely.
  const bool cacheable = flow_cache_.enabled() && !ingress_pipe.has_value();
  dataplane::FlowKey key;
  std::uint64_t generation = 0;
  unsigned entry_pipe = 0;
  if (ingress_pipe) {
    entry_pipe = *ingress_pipe;
  } else {
    const std::uint64_t h = packet.inner.hash();
    entry_pipe = entry_pipe_of(h);
    if (cacheable) {
      // Fast path: replay the cached walk for this exact (VNI, 5-tuple).
      key = dataplane::make_flow_key(packet.vni, h);
      generation = effective_generation(packet.vni);
      if (const CachedWalk* hit = flow_cache_.find(key, generation)) {
        return finish(packet, now, *hit, /*replayed=*/true);
      }
    }
  }

  // Second-miss admission: only flows that have missed before are worth
  // the capture + insert; one-packet flows cost a single filter write.
  const bool capture = cacheable && flow_cache_.note_miss(key);
  if (capture) snapshot_walk_counters();
  asic::WalkSummary walked;
  walker_->run(packet, entry_pipe, batch_.walk_ctx, walked);
  CachedWalk summary =
      summarize_walk(batch_.walk_ctx, walked, /*capture_deltas=*/capture);
  const ForwardResult result = finish(packet, now, summary, /*replayed=*/false);
  if (capture) flow_cache_.insert(key, generation, summary);
  return result;
}

void XgwH::process_batch(std::span<const net::OverlayPacket> packets,
                         double now, std::span<dataplane::Verdict> out) {
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch: output span smaller than the batch");
  }
  batch_.idx.resize(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    batch_.idx[i] = static_cast<std::uint32_t>(i);
  }
  process_batch_indexed(packets, {}, batch_.idx, now, out);
}

void XgwH::process_batch(std::span<const net::OverlayPacket> packets,
                         std::span<const std::uint64_t> flow_hashes,
                         double now, std::span<dataplane::Verdict> out) {
  if (flow_hashes.size() != packets.size()) {
    throw std::invalid_argument(
        "process_batch: flow_hashes.size() must equal packets.size()");
  }
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch: output span smaller than the batch");
  }
  batch_.idx.resize(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    batch_.idx[i] = static_cast<std::uint32_t>(i);
  }
  process_batch_indexed(packets, flow_hashes, batch_.idx, now, out);
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
  if (n == 0) return;

  BatchScratch& b = batch_;

  // Normalize hashes to one position-indexed column: the later sweeps
  // then stream it sequentially no matter how the indices stride. This
  // first walk also prefetches each packet a few positions ahead — the
  // engine's index lists stride the base array (one shard keeps every
  // N-th packet), which defeats the hardware streamer, so the first
  // touch of every packet would otherwise stall on L3; the later phases
  // then re-touch the burst L2-warm.
  constexpr std::size_t kAhead = 8;
  const auto prefetch_packet = [&](std::size_t i) {
    if (i + kAhead < n) {
      const char* p =
          reinterpret_cast<const char*>(&packets[indices[i + kAhead]]);
      __builtin_prefetch(p);
      __builtin_prefetch(p + 64);
    }
  };
  b.hash.resize(n);
  if (flow_hashes.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_packet(i);
      b.hash[i] = packets[indices[i]].inner.hash();
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_packet(i);
      b.hash[i] = flow_hashes[indices[i]];
    }
  }

  // Bulk ingest, BEFORE any capture snapshot: a capture walk's counter
  // delta window must contain that walk's adds and nothing else, exactly
  // like the scalar path (which ingests each packet before snapshotting).
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) bytes += packets[indices[i]].wire_size();
  telemetry_.packets_in += n;
  telemetry_.bytes_in += bytes;
  ctr_packets_in_->add(n);
  ctr_bytes_in_->add(bytes);

  b.pend.clear();
  b.walk.resize(n);
  b.replayed.assign(n, 0);

  if (flow_cache_.enabled()) {
    b.key.resize(n);
    b.gen.resize(n);
    // Phase 1: derive every cache key from the precomputed flow hash and
    // issue its slot prefetch — by the time phase 2 probes slot i, the
    // line has had n-i probes' worth of time to arrive.
    for (std::size_t i = 0; i < n; ++i) {
      b.key[i] = dataplane::make_flow_key(packets[indices[i]].vni, b.hash[i]);
      b.gen[i] = effective_generation(packets[indices[i]].vni);
      flow_cache_.prefetch(b.key[i]);
    }
    // Phase 2: probe in strict packet order — find/note_miss/insert
    // mutate cache stats and admission state, and their sequence is part
    // of the byte-identity contract. Only walks with no cache side
    // effects (non-capture misses) defer to the SoA sweep.
    for (std::size_t i = 0; i < n; ++i) {
      if (const CachedWalk* hit = flow_cache_.find(b.key[i], b.gen[i])) {
        b.walk[i] = *hit;  // copy: the pointer dies at the next insert
        b.replayed[i] = 1;
        continue;
      }
      if (flow_cache_.note_miss(b.key[i])) {
        // Capture miss: walks alone so its delta window stays exact.
        // Flush the deferred packets gathered so far first — their bulk
        // counter adds must land outside the window.
        flush_soa_walk(packets, indices);
        snapshot_walk_counters();
        asic::WalkSummary walked;
        walker_->run(packets[indices[i]], entry_pipe_of(b.hash[i]),
                     b.walk_ctx, walked, /*record_pass_hist=*/false);
        b.walk[i] =
            summarize_walk(b.walk_ctx, walked, /*capture_deltas=*/true);
        flow_cache_.insert(b.key[i], b.gen[i], b.walk[i]);
      } else {
        b.pend.push_back(static_cast<std::uint32_t>(i));
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      b.pend.push_back(static_cast<std::uint32_t>(i));
    }
  }
  flush_soa_walk(packets, indices);

  // Phase 3: emit verdicts in packet order. Histogram records and the
  // stateful fallback meter live here, so their streams are sample-for-
  // sample what the scalar loop produces. Deferred walks suppressed their
  // in-walk "asic.passes" record; replayed hits record theirs in finish.
  for (std::size_t i = 0; i < n; ++i) {
    // The verdict slots are write-allocated on first touch and the index
    // stride defeats the hardware streamer — hint them in ahead.
    if (i + 4 < n) {
      char* slot = reinterpret_cast<char*>(&out[indices[i + 4]]);
      __builtin_prefetch(slot, 1);
      __builtin_prefetch(slot + 64, 1);
      __builtin_prefetch(slot + 128, 1);
    }
    if (b.replayed[i] == 0) {
      hist_passes_->record(static_cast<double>(b.walk[i].passes));
    }
    // In-place emission: finish_into writes every Verdict field, so the
    // slot needs no clearing and no ForwardResult temporary is copied.
    finish_into(out[indices[i]], packets[indices[i]], now, b.walk[i],
                b.replayed[i] != 0);
  }
}

void XgwH::flush_soa_walk(std::span<const net::OverlayPacket> packets,
                          std::span<const std::uint32_t> indices) {
  BatchScratch& b = batch_;
  const std::size_t m = b.pend.size();
  if (m == 0) return;
  const bool fold = config_.compression.fold;

  b.vni.resize(m);
  b.entry_pipe.resize(m);
  b.lb_pipe.resize(m);
  b.exit_pipe.resize(m);
  b.alive.assign(m, 1);
  b.drop_code.assign(m, 0);
  b.scope.assign(m, 0);
  b.fallback.assign(m, 0);
  b.has_nc.assign(m, 0);
  b.tunnel_ip.resize(m);
  b.nc_ip.resize(m);
  b.rkey.resize(m);
  b.rpart.resize(m);

  // Counter totals, added in bulk at the end (counters commute, so only
  // the totals must match the scalar walk's per-packet bumps).
  std::array<std::uint64_t, 4> ing{};
  std::array<std::uint64_t, 4> eg{};
  std::uint64_t n_drops = 0, n_route_hit = 0, n_route_miss = 0;
  std::uint64_t n_vm_hit = 0, n_vm_miss = 0, n_acl_deny = 0;

  // Ingress pass 0: parse + entry + ACL. Every packet charges its entry
  // pipe's ingress counter (the walker bumps it before any stage runs);
  // folded survivors then cross to their shard's loopback egress.
  b.work.clear();
  for (std::size_t k = 0; k < m; ++k) {
    const net::OverlayPacket& pkt = packets[indices[b.pend[k]]];
    b.vni[k] = pkt.vni;
    const unsigned entry = entry_pipe_of(b.hash[b.pend[k]]);
    b.entry_pipe[k] = entry;
    ++ing[entry];
    if (pkt.vni > net::kMaxVni) {
      b.alive[k] = 0;
      b.drop_code[k] =
          static_cast<std::uint8_t>(dataplane::DropReason::kInvalidVni);
      continue;
    }
    b.lb_pipe[k] = 1 + 2 * shard_of(pkt.vni);
    if (acl_.evaluate(pkt.vni, pkt.inner) == tables::AclVerdict::kDeny) {
      ++n_acl_deny;
      b.alive[k] = 0;
      b.drop_code[k] =
          static_cast<std::uint8_t>(dataplane::DropReason::kAclDeny);
      continue;
    }
    if (fold) ++eg[b.lb_pipe[k]];
    b.work.push_back(static_cast<std::uint32_t>(k));
  }

  // Route lookups, one software-pipelined sweep per peer hop: build the
  // pooled key and prepare (TCAM directory probe + SRAM bucket prefetch)
  // for the whole worklist, then resolve the whole worklist — each
  // bucket's DRAM fetch hides behind the other keys' directory probes.
  for (int hop = 0; hop < 4 && !b.work.empty(); ++hop) {
    // Group the worklist by pipeline shard so each shard's ALPM gets one
    // contiguous key span: the directory sweep then hashes + prefetches
    // the whole span depth-major (the per-packet serial probe chain was
    // the hot path's single largest stall).
    for (unsigned s = 0; s < 2; ++s) {
      b.shard_keys[s].clear();
      b.shard_pos[s].clear();
    }
    for (std::uint32_t k : b.work) {
      const net::OverlayPacket& pkt = packets[indices[b.pend[k]]];
      b.rkey[k] = tables::make_pooled_key(b.vni[k], pkt.inner.dst);
      const unsigned s = shard_of(b.vni[k]);
      b.shard_keys[s].push_back(b.rkey[k]);
      b.shard_pos[s].push_back(k);
    }
    for (unsigned s = 0; s < 2; ++s) {
      b.shard_part[s].resize(b.shard_keys[s].size());
      shards_[s].routes.lookup_prepare_batch(b.shard_keys[s],
                                             b.shard_part[s]);
      for (std::size_t j = 0; j < b.shard_pos[s].size(); ++j) {
        b.rpart[b.shard_pos[s][j]] = b.shard_part[s][j];
      }
    }
    b.next_work.clear();
    for (std::uint32_t k : b.work) {
      auto route = shards_[shard_of(b.vni[k])].routes.lookup_resolve(
          b.rkey[k], b.rpart[k]);
      if (!route) {
        ++n_route_miss;
        b.fallback[k] = 1;
        continue;
      }
      ++n_route_hit;
      switch (route->scope) {
        case tables::RouteScope::kLocal:
          b.scope[k] = static_cast<std::uint8_t>(route->scope);
          break;
        case tables::RouteScope::kPeer:
          b.vni[k] = route->next_hop_vni;
          b.next_work.push_back(k);
          break;
        case tables::RouteScope::kIdc:
        case tables::RouteScope::kCrossRegion:
          b.scope[k] = static_cast<std::uint8_t>(route->scope);
          b.tunnel_ip[k] = route->remote_endpoint.value();
          break;
        case tables::RouteScope::kInternet:
          b.fallback[k] = 1;
          break;
      }
    }
    std::swap(b.work, b.next_work);
  }
  // Hop budget exhausted with peers still pending: the scalar stage drops.
  for (std::uint32_t k : b.work) {
    b.alive[k] = 0;
    b.drop_code[k] =
        static_cast<std::uint8_t>(dataplane::DropReason::kPeerResolutionLoop);
  }

  // Pass 1 (folded): survivors loop back through the shard pipe's ingress
  // and pick their exit pipe; unfolded exits through the entry pipe.
  // Local-scope non-fallback packets queue for the VM-NC sweep.
  b.work.clear();
  for (std::size_t k = 0; k < m; ++k) {
    if (!b.alive[k]) continue;
    if (fold) ++ing[b.lb_pipe[k]];
    b.exit_pipe[k] = fold ? (b.lb_pipe[k] == 1 ? 0u : 2u) : b.entry_pipe[k];
    if (b.fallback[k] == 0 &&
        static_cast<tables::RouteScope>(b.scope[k]) ==
            tables::RouteScope::kLocal) {
      b.work.push_back(static_cast<std::uint32_t>(k));
    }
  }

  // VM-NC sweep: prefetch the mapping buckets a strip at a time, then
  // resolve the strip. Strips keep the prefetched lines L1-resident —
  // prefetching the whole burst up front left the early lines evicted by
  // the time the resolve loop reached them. The mapping lives in the
  // *resolved* VNI's shard, same as the scalar stage.
  constexpr std::size_t kVmStrip = 64;
  for (std::size_t s0 = 0; s0 < b.work.size(); s0 += kVmStrip) {
    const std::size_t s1 = std::min(s0 + kVmStrip, b.work.size());
    for (std::size_t j = s0; j < s1; ++j) {
      const std::uint32_t k = b.work[j];
      const net::OverlayPacket& pkt = packets[indices[b.pend[k]]];
      shards_[shard_of(b.vni[k])].mappings.prefetch(b.vni[k], pkt.inner.dst);
    }
    for (std::size_t j = s0; j < s1; ++j) {
      const std::uint32_t k = b.work[j];
      const net::OverlayPacket& pkt = packets[indices[b.pend[k]]];
      auto mapping =
          shards_[shard_of(b.vni[k])].mappings.lookup(b.vni[k], pkt.inner.dst);
      if (mapping) {
        ++n_vm_hit;
        b.has_nc[k] = 1;
        b.nc_ip[k] = mapping->nc_ip.value();
      } else {
        ++n_vm_miss;
        b.fallback[k] = 2;  // vm-stage fallback: bridged accounting differs
      }
    }
  }

  // Rewrite + summary fill. Passes and bridged bits are exact per-path
  // constants of the pipeline program — DESIGN.md §15 derives them, and
  // the batch-identity tests hold them to the walker's own accounting.
  const net::IpAddr outer_src{config_.device_ip};
  const net::IpAddr x86_hop{config_.x86_next_hop};
  for (std::size_t k = 0; k < m; ++k) {
    CachedWalk walk;  // delta_set stays kNoDeltaSet: nothing to replay
    if (!b.alive[k]) {
      // Pre-rewrite drops never touch the packet. A folded peer-loop drop
      // dies in the loopback egress: it crossed once (the 1-bit shard
      // field) and completed one pass; entry/ACL drops die in ingress.
      walk.dropped = true;
      walk.drop_code = b.drop_code[k];
      const bool peer_loop =
          b.drop_code[k] ==
          static_cast<std::uint8_t>(dataplane::DropReason::kPeerResolutionLoop);
      walk.passes = (fold && peer_loop) ? 1 : 0;
      walk.bridged_bits = (fold && peer_loop) ? 1 : 0;
      ++n_drops;
      b.walk[b.pend[k]] = walk;
      continue;
    }
    ++eg[b.exit_pipe[k]];  // the walker bumps it before the rewrite stage
    const auto scope = static_cast<tables::RouteScope>(b.scope[k]);
    const bool tunnel = b.fallback[k] == 0 &&
                        (scope == tables::RouteScope::kIdc ||
                         scope == tables::RouteScope::kCrossRegion);
    walk.passes = fold ? 2 : 1;
    walk.set_outer_src = true;
    walk.outer_src = outer_src;
    unsigned bridged = 0;
    if (b.fallback[k] == 1) {
      // Route stage steered to x86: fallback1+resolved24 crossed twice
      // (folded) or once with the shard bit (unfolded).
      bridged = fold ? 51u : 26u;
      walk.act = static_cast<std::uint8_t>(kActFallback);
      walk.outer_dst = x86_hop;
    } else if (tunnel) {
      // scope3+fallback1+resolved24+tunnel32, twice; +shard1 at entry.
      bridged = fold ? 121u : 61u;
      walk.act = static_cast<std::uint8_t>(kActTunnel);
      walk.outer_dst = net::IpAddr(net::Ipv4Addr(b.tunnel_ip[k]));
    } else if (b.fallback[k] == 2) {
      // VM miss re-raises fallback: scope3+fallback1+resolved24, twice.
      bridged = fold ? 57u : 29u;
      walk.act = static_cast<std::uint8_t>(kActFallback);
      walk.outer_dst = x86_hop;
    } else if (b.has_nc[k]) {
      // Local delivery: +nc32 on the final crossing.
      bridged = fold ? 89u : 61u;
      walk.act = static_cast<std::uint8_t>(kActForward);
      walk.outer_dst = net::IpAddr(net::Ipv4Addr(b.nc_ip[k]));
    } else {
      // Local route, no NC, no fallback: the rewrite stage drops. The
      // rewrite already wrote outer_src, so that mutation caches.
      walk.dropped = true;
      walk.drop_code =
          static_cast<std::uint8_t>(dataplane::DropReason::kNoNcResolved);
      walk.bridged_bits = fold ? 57u : 29u;
      ++n_drops;
      b.walk[b.pend[k]] = walk;
      continue;
    }
    walk.set_outer_dst = true;
    walk.egress_pipe = static_cast<std::uint8_t>(b.exit_pipe[k]);
    walk.bridged_bits = static_cast<std::uint16_t>(bridged);
    b.walk[b.pend[k]] = walk;
  }

  ctr_asic_packets_->add(m);
  for (unsigned pipe = 0; pipe < 4; ++pipe) {
    if (ing[pipe] != 0) ctr_asic_ingress_[pipe]->add(ing[pipe]);
    if (eg[pipe] != 0) ctr_asic_egress_[pipe]->add(eg[pipe]);
  }
  if (n_drops != 0) ctr_asic_drops_->add(n_drops);
  if (n_route_hit != 0) ctr_route_hit_->add(n_route_hit);
  if (n_route_miss != 0) ctr_route_miss_->add(n_route_miss);
  if (n_vm_hit != 0) ctr_vm_hit_->add(n_vm_hit);
  if (n_vm_miss != 0) ctr_vm_miss_->add(n_vm_miss);
  if (n_acl_deny != 0) ctr_acl_deny_->add(n_acl_deny);

  b.pend.clear();
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

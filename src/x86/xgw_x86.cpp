#include "x86/xgw_x86.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::x86 {

XgwX86::XgwX86(Config config)
    : config_(config),
      routes_(/*bucket_hint=*/4096),
      mappings_(/*bucket_hint=*/4096),
      snat_(config.snat),
      rss_(config.model.cores, 128, config.rss_seed),
      flow_cache_(dataplane::FlowCache<CachedVerdict>::Config{
          config.flow_cache_entries}),
      registry_(std::make_unique<telemetry::Registry>()) {
  ctr_packets_in_ = &registry_->counter("x86.packets_in");
  ctr_bytes_in_ = &registry_->counter("x86.bytes_in");
  ctr_forwarded_ = &registry_->counter("x86.packets_forwarded");
  ctr_snat_ = &registry_->counter("x86.packets_snat");
  ctr_snat_failures_ = &registry_->counter("x86.snat_failures");
  ctr_dropped_ = &registry_->counter("x86.packets_dropped");
  ctr_table_ops_ = &registry_->counter("x86.table_ops");
  hist_latency_ = &registry_->histogram(
      "x86.latency_us", telemetry::Histogram::Config{
                            /*min_value=*/1.0, /*growth=*/2.0,
                            /*buckets=*/16, /*reservoir=*/256});
}

dataplane::BatchResult XgwX86::apply(const dataplane::TableOpBatch& batch) {
  dataplane::BatchResult result;
  if (batch.empty()) {
    result.publish_epoch = seq_;
    return result;
  }
  // The whole batch lands at one new version: forwarding observes either
  // none of it or all of it, never a partial transaction.
  ++seq_;
  for (const dataplane::TableOp& op : batch.ops) {
    result.record(apply_one(op), seq_);
  }
  epoch_.publish(seq_);
  // Steady-state reclamation: versions below the forwarding floor are
  // unreachable; sweep every few hundred mutations.
  if (seq_ - last_collect_seq_ >= 512) {
    const std::uint64_t floor =
        lookup_seq_.load(std::memory_order_acquire);
    collect_garbage(floor == kLookupLatest ? seq_ : floor);
  }
  return result;
}

dataplane::TableOpStatus XgwX86::apply_one(const dataplane::TableOp& op) {
  ctr_table_ops_->add();
  generations_.note(
      op, dataplane::ReadSetGenerations::address_key(op.mapping_key.vm_ip),
      seq_);
  switch (op.kind) {
    case dataplane::TableOp::Kind::kAddRoute:
      return routes_.insert(op.vni, op.prefix, op.route_action, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kDuplicate;
    case dataplane::TableOp::Kind::kDelRoute:
      return routes_.erase(op.vni, op.prefix, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kNotFound;
    case dataplane::TableOp::Kind::kAddMapping:
      return mappings_.insert(op.mapping_key, op.mapping_action, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kDuplicate;
    case dataplane::TableOp::Kind::kDelMapping:
      return mappings_.erase(op.mapping_key, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kNotFound;
  }
  return dataplane::TableOpStatus::kNotFound;
}

void XgwX86::collect_garbage(std::uint64_t keep_from) {
  routes_.collect(keep_from, epoch_);
  mappings_.collect(keep_from, epoch_);
  last_collect_seq_ = seq_;
}

double XgwX86::full_install_seconds() const {
  return config_.model.table_install_seconds(route_count() +
                                             mapping_count());
}

X86Result XgwX86::forward(const net::OverlayPacket& packet, double now) {
  return forward_impl(packet, now, /*allow_cache=*/true);
}

X86Result XgwX86::forward_punted(const net::OverlayPacket& packet,
                                 double now) {
  return forward_impl(packet, now, /*allow_cache=*/false);
}

void XgwX86::process_batch_indexed(std::span<const net::OverlayPacket> packets,
                                   std::span<const std::uint64_t> flow_hashes,
                                   std::span<const std::uint32_t> indices,
                                   double now,
                                   std::span<dataplane::Verdict> out) {
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: output span smaller than the packet array");
  }
  if (!flow_hashes.empty() && flow_hashes.size() != packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: flow_hashes must be empty or one per packet");
  }
  for (const std::uint32_t i : indices) {
    if (i >= packets.size()) {
      throw std::out_of_range(
          "process_batch_indexed: index past the packet array");
    }
  }
  // Run-to-completion per packet (the SNAT engine and the RCU pin are
  // inherently sequential), striding the shared index list: packet,
  // verdict slot and cache slot of index indices[k + kAhead] are all
  // requested while packet indices[k] runs.
  constexpr std::size_t kAhead = 8;
  const bool cached = flow_cache_.enabled();
  const bool hashed = !flow_hashes.empty();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (k + kAhead < indices.size()) {
      const std::uint32_t ahead = indices[k + kAhead];
      __builtin_prefetch(&packets[ahead]);
      __builtin_prefetch(&out[ahead], 1);
      if (cached && hashed) {
        flow_cache_.prefetch(
            dataplane::make_flow_key(packets[ahead].vni, flow_hashes[ahead]));
      }
    }
    const std::uint32_t i = indices[k];
    out[i] = forward_impl(packets[i], now, /*allow_cache=*/true,
                          hashed ? &flow_hashes[i] : nullptr);
  }
}

X86Result XgwX86::forward_impl(const net::OverlayPacket& packet, double now,
                               bool allow_cache,
                               const std::uint64_t* flow_hash) {
  ctr_packets_in_->add();
  ctr_bytes_in_->add(packet.wire_size());
  X86Result result;
  result.packet = packet;
  result.software_path = true;
  result.latency_us = config_.model.latency_us(0.0);
  hist_latency_->record(result.latency_us);

  // Shared epilogues — the slow path lands here after the lookup chain,
  // and a cache hit replays the same bumps without walking the chain.
  auto drop = [&](dataplane::DropReason reason) -> X86Result& {
    ctr_dropped_->add();
    result.drop_reason = reason;
    return result;
  };
  auto forward_to = [&](dataplane::Action action,
                        const net::IpAddr& outer_dst) -> X86Result& {
    result.packet.outer_src_ip = net::IpAddr(config_.device_ip);
    result.packet.outer_dst_ip = outer_dst;
    result.action = action;
    ctr_forwarded_->add();
    return result;
  };

  // Pin the table version this packet reads: either the replay-required
  // version (deterministic mid-interval interleave) or whatever the
  // mutator last published. The route walk and the mapping probe below
  // observe exactly that version.
  const std::uint64_t want = lookup_seq_.load(std::memory_order_acquire);
  std::uint64_t pin_seq;
  if (want == kLookupLatest) {
    pin_seq = reader_.pin_latest();
  } else {
    reader_.pin(want);
    pin_seq = want;
  }
  struct Unpin {
    rcu::EpochManager::Reader& reader;
    ~Unpin() { reader.unpin(); }
  } unpin_guard{reader_};

  // Fast path: the stateless outcomes (routes + mappings are pure table
  // functions of the flow) replay from the cache. SNAT never caches, and
  // punted packets (allow_cache == false) neither probe nor fill — a shed
  // tenant's spillover must not touch the fast path at all. Nor does a
  // packet pinned before the last bump of a slot its walk reads (stamp >
  // pin): the cache may already hold that newer state.
  const std::uint64_t generation = generations_.stamp(
      packet.vni, dataplane::ReadSetGenerations::address_key(packet.inner.dst));
  const bool cacheable =
      allow_cache && flow_cache_.enabled() && generation <= pin_seq;
  dataplane::FlowKey key;
  if (cacheable) {
    key = flow_hash != nullptr
              ? dataplane::make_flow_key(packet.vni, *flow_hash)
              : dataplane::make_flow_key(packet.vni, packet.inner);
    if (const CachedVerdict* hit = flow_cache_.find(key, generation)) {
      return hit->action == dataplane::Action::kDrop
                 ? drop(hit->reason)
                 : forward_to(hit->action, hit->outer_dst);
    }
  }
  // Second-miss admission: see FlowCache::note_miss.
  const bool capture = cacheable && flow_cache_.note_miss(key);
  auto remember = [&](X86Result& r) -> X86Result& {
    if (capture) {
      flow_cache_.insert(
          key, generation,
          CachedVerdict{r.action, r.drop_reason, r.packet.outer_dst_ip});
    }
    return r;
  };

  net::Vni vni = packet.vni;
  const tables::VxlanRouteAction* route = nullptr;
  for (int hop = 0; hop < 4; ++hop) {
    route = routes_.lookup(vni, packet.inner.dst, pin_seq);
    if (route == nullptr || route->scope != tables::RouteScope::kPeer) break;
    vni = route->next_hop_vni;
  }
  if (route == nullptr) {
    return remember(drop(dataplane::DropReason::kNoRoute));
  }

  switch (route->scope) {
    case tables::RouteScope::kLocal: {
      const tables::VmNcAction* mapping =
          mappings_.lookup(tables::VmNcKey{vni, packet.inner.dst}, pin_seq);
      if (mapping == nullptr) {
        return remember(drop(dataplane::DropReason::kNoVmNcMapping));
      }
      return remember(forward_to(dataplane::Action::kForwardToNc,
                                 net::IpAddr(mapping->nc_ip)));
    }
    case tables::RouteScope::kIdc:
    case tables::RouteScope::kCrossRegion:
      return remember(forward_to(dataplane::Action::kForwardTunnel,
                                 net::IpAddr(route->remote_endpoint)));
    case tables::RouteScope::kInternet: {
      AllocFailure failure = AllocFailure::kNone;
      auto binding = snat_.translate(packet.inner, now, &failure);
      if (!binding) {
        ctr_dropped_->add();
        ctr_snat_failures_->add();
        if (failure == AllocFailure::kPortBlockExhausted) {
          // Lazily registered: a node that never exhausts a block keeps
          // its telemetry snapshot byte-identical to before this counter
          // existed.
          registry_->counter("x86.snat_port_block_exhausted").add();
          result.drop_reason =
              dataplane::DropReason::kSnatPortBlockExhausted;
        } else {
          result.drop_reason = dataplane::DropReason::kSnatPoolExhausted;
        }
        return result;
      }
      // Decap: the packet leaves as plain IP with the public source.
      result.packet.vni = 0;
      result.packet.inner.src = net::IpAddr(binding->public_ip);
      result.packet.inner.src_port = binding->public_port;
      result.packet.outer_src_ip = net::IpAddr(config_.device_ip);
      result.packet.outer_dst_ip = packet.inner.dst;
      result.snat = binding;
      result.action = dataplane::Action::kSnatToInternet;
      ctr_snat_->add();
      return result;
    }
    case tables::RouteScope::kPeer:
      return remember(drop(dataplane::DropReason::kPeerResolutionLoop));
  }
  return remember(drop(dataplane::DropReason::kUnhandledScope));
}

std::optional<net::OverlayPacket> XgwX86::process_response(
    const SnatBinding& binding, const net::IpAddr& peer_ip,
    std::uint16_t peer_port, std::uint16_t payload_size, double now) {
  auto session = snat_.reverse(binding, peer_ip, peer_port, now);
  if (!session) return std::nullopt;

  // The original outbound session tells us the VM; find its NC. The SNAT
  // session was created from a packet whose resolved VNI we do not store,
  // so scan by the session's source VM across installed mappings — the
  // production system keeps the VNI in the session; we keep it simple by
  // storing sessions per (vni) in the tuple's src, which is unique within
  // the gateway's mapping table for this model.
  std::optional<net::OverlayPacket> reply;
  mappings_.for_each_live([&](const tables::VmNcKey& key,
                              const tables::VmNcAction& action) {
    if (reply.has_value() || key.vm_ip != session->src) return;
    net::OverlayPacket packet;
    packet.vni = key.vni;
    packet.inner.src = peer_ip;
    packet.inner.src_port = peer_port;
    packet.inner.dst = session->src;
    packet.inner.dst_port = session->src_port;
    packet.inner.proto = session->proto;
    packet.payload_size = payload_size;
    packet.outer_src_ip = net::IpAddr(config_.device_ip);
    packet.outer_dst_ip = net::IpAddr(action.nc_ip);
    reply = packet;
  });
  return reply;
}

IntervalReport XgwX86::simulate_interval(
    std::span<const FlowRate> flows) const {
  IntervalReport report;
  report.cores.resize(config_.model.cores);

  for (const FlowRate& flow : flows) {
    CoreLoad& core = report.cores[rss_.queue_for(flow.tuple)];
    core.offered_pps += flow.pps;
    ++core.flows;
    if (flow.pps > core.top1_pps) {
      core.top2_pps = core.top1_pps;
      core.top1_pps = flow.pps;
    } else if (flow.pps > core.top2_pps) {
      core.top2_pps = flow.pps;
    }
    report.offered_pps += flow.pps;
    report.offered_bps += flow.bps;
  }

  const double capacity = config_.model.core_pps();
  for (CoreLoad& core : report.cores) {
    core.processed_pps = std::min(core.offered_pps, capacity);
    core.dropped_pps = core.offered_pps - core.processed_pps;
    core.utilization = core.offered_pps / capacity;
    report.dropped_pps += core.dropped_pps;
    report.max_core_utilization =
        std::max(report.max_core_utilization, core.utilization);
  }
  report.drop_rate =
      report.offered_pps > 0 ? report.dropped_pps / report.offered_pps : 0;
  return report;
}

}  // namespace sf::x86

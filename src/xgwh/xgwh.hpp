// XGW-H: the Tofino-based hardware gateway (one SfChip running the Sailfish
// gateway program).
//
// Datapath (folded mode, Fig. 13/14 of the paper), as asic::kGatewayProgram
// describes it once — build_program() binds these gresses from it and the
// placer bills each table at the gress of the stage that reads it:
//   Ingress 0/2 : entry pipes — ACL, shard select (hash of VNI) -> egress 1|3
//   Egress  1/3 : loopback pipes — VXLAN route lookup in that shard
//   Ingress 1/3 : VM-NC lookup in that shard -> exit pipe select
//   Egress  0/2 : tunnel rewrite (outer DIP = NC, or steer to XGW-x86)
//
// Unfolded mode runs the whole program in one pass on every pipeline with
// fully replicated tables (4x memory, 2x throughput, half the latency).
//
// The gateway exposes a controller-facing table API and a data-plane
// process() call; occupancy reports come from the placer fed with *live*
// table statistics (measured ALPM partitions, measured digest conflicts).

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "asic/chip_config.hpp"
#include "asic/pipeline.hpp"
#include "asic/placer.hpp"
#include "asic/walker.hpp"
#include "dataplane/flow_cache.hpp"
#include "dataplane/gateway.hpp"
#include "dataplane/read_set.hpp"
#include "dataplane/table_programmer.hpp"
#include "tables/alpm.hpp"
#include "tables/digest_table.hpp"
#include "tables/service_tables.hpp"
#include "tables/token_bucket.hpp"
#include "telemetry/registry.hpp"

namespace sf::xgwh {

/// The hardware gateway's verdict: the unified dataplane fields plus the
/// chip-level observables the figures consume.
struct ForwardResult : dataplane::Verdict {
  unsigned passes = 0;
  unsigned egress_pipe = 0;
  /// Loopback egress pipe (1 or 3) the packet crossed in folded mode —
  /// the quantity Figs. 20/21 balance.
  std::optional<unsigned> shard_pipe;
};

class XgwH : public dataplane::Gateway, public dataplane::TableProgrammer {
 public:
  struct Config {
    asic::ChipConfig chip;
    asic::CompressionConfig compression = asic::CompressionConfig::all();
    net::Ipv4Addr device_ip = net::Ipv4Addr(10, 0, 0, 1);
    /// Next hop for fallback traffic (the XGW-x86 cluster VIP).
    net::Ipv4Addr x86_next_hop = net::Ipv4Addr(10, 0, 0, 100);
    /// Rate limit toward XGW-x86 (overload protection, §4.2).
    double fallback_rate_bps = 20e9;
    double fallback_burst_bytes = 32e6;
    /// Hash buckets of each shard's VM-NC table (4 ways each): the
    /// modeled SRAM capacity, set by hand rather than read from the
    /// placement. Host memory follows the installed mappings (the slot
    /// array starts at one page and doubles up to this count), so
    /// sparsely filled fleet devices do not pay for the capacity.
    std::size_t vm_table_buckets = 1 << 14;
    /// Flow-cache slots in front of the pipeline walk (0 disables; the
    /// default honors the SF_FLOW_CACHE environment gate). The cache table
    /// is allocated lazily on first insert, so idle fleet devices cost
    /// nothing.
    std::size_t flow_cache_entries = dataplane::default_flow_cache_entries();
  };

  explicit XgwH(Config config);
  // The walker and the stages it runs point into the device: not copyable
  // or movable.
  XgwH(const XgwH&) = delete;
  XgwH& operator=(const XgwH&) = delete;

  // ---- controller-facing table API (dataplane::TableProgrammer) ----------

  /// Applies a batch op-by-op. A route op makes the cached walks entering
  /// on any VNI of the op VNI's peer group miss and re-walk; a mapping op
  /// those whose destination shares the mapping's ip32. Every other flow
  /// keeps its fast path (DESIGN.md §9). The publish epoch reported per op
  /// is the device's monotone mutation counter.
  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override;
  void add_acl_rule(tables::AclRule rule);

  /// Invalidates every cached verdict, across all VNIs: the cluster/DR
  /// layers call this on health reroutes and standby swaps, and ACL
  /// changes escalate here too (rules match any VNI).
  void invalidate_fast_path() { generations_.bump_all(++op_epoch_); }
  std::uint64_t fast_path_generation() const { return op_epoch_; }

  /// Hit/miss/eviction statistics of the flow cache (plain struct, kept
  /// outside the registry so telemetry snapshots stay byte-identical with
  /// the cache on or off).
  const dataplane::FlowCacheStats& flow_cache_stats() const {
    return flow_cache_.stats();
  }

  /// True when this device's flow cache holds a live entry for the
  /// packet's flow — the guard's tier-1 "established?" probe. Const and
  /// side-effect free: it never touches cache stats or the admission
  /// filter, so probing cannot perturb cache-on/off byte-identity.
  bool flow_established(const net::OverlayPacket& packet) const {
    if (!flow_cache_.allocated()) return false;
    return flow_cache_.contains(
        dataplane::make_flow_key(packet.vni, packet.inner),
        generation_of(packet.vni, packet.inner.dst));
  }

  std::size_t route_count() const;
  std::size_t mapping_count() const;

  /// Exact-presence checks, used by the controller's consistency audit.
  bool has_route(net::Vni vni, const net::IpPrefix& prefix) const;
  bool has_mapping(const tables::VmNcKey& key) const;

  // ---- data plane (dataplane::Gateway) ------------------------------------

  /// Processes one packet with full chip observables: a burst of one
  /// through process_batch_indexed. `now` is the simulation clock
  /// (seconds), used by the fallback rate limiter; the entry pipe is a
  /// flow-hash pick among the entry pipes.
  ForwardResult forward(const net::OverlayPacket& packet, double now = 0);

  /// Gateway interface: forward() sliced to the unified verdict.
  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now) override {
    return forward(packet, now);
  }

  /// The batched fast path (DESIGN.md §15), and the device's one batch
  /// entry point: the sharded engine hands each shard sub-spans of one
  /// shared index list, so packets and verdicts are never gathered or
  /// scattered through per-burst copies. Cache probes stay in strict
  /// packet order (FlowCacheStats byte-exact), non-capture misses walk the
  /// pipeline as one Walker burst whose stages software-pipeline their
  /// table lookups, and verdicts emit in packet order. Byte-identical to
  /// looping process() — verdicts, registry snapshots and cache stats.
  /// `flow_hashes` is empty (hashes are then computed here, once per
  /// packet) or packets.size() long; anything else throws
  /// std::invalid_argument. An index at or past packets.size() throws
  /// std::out_of_range before any state changes.
  void process_batch_indexed(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double now,
                             std::span<dataplane::Verdict> out) override;

  using dataplane::Gateway::process_batch;

  // ---- the program's outcome paths (DESIGN.md §15) -----------------------

  /// Every way a packet can leave the gateway program. A packet's path
  /// alone fixes its passes, bridged bits, pipe visits and table charges;
  /// only its route-hit count (peer hops) and rewrite target vary.
  enum class Path : std::uint8_t {
    kInvalidVni,  // entry stage: VNI above net::kMaxVni
    kAclDeny,     // ACL stage
    kPeerLoop,    // route stage: the peer-hop budget ran out
    kRouteMiss,   // route stage missed: fallback to XGW-x86
    kInternet,    // internet route: fallback (SNAT at XGW-x86)
    kTunnel,      // IDC or cross-region route
    kVmMiss,      // local route without a VM-NC mapping: fallback
    kLocal,       // local route and mapping: forward to the NC
  };
  static constexpr std::size_t kPathCount =
      static_cast<std::size_t>(Path::kLocal) + 1;

  /// One row of the path table. build_program() derives every row from
  /// the program's gress layout and the PHV field widths.
  struct PathInfo {
    dataplane::DropReason drop = dataplane::DropReason::kNone;
    dataplane::Action action = dataplane::Action::kDrop;  // when not dropped
    std::uint8_t passes = 0;
    std::uint16_t bridged_bits = 0;
    /// Bit g set: the path visits gress g (asic::PathSlot order, the walk
    /// order). Unfolded paths visit only the entry ingress and exit egress.
    std::uint8_t visits = 0;
    /// The one table counter the path bumps besides route hits (ACL deny,
    /// route miss, VM-NC hit or miss), or null.
    telemetry::Counter* table_counter = nullptr;
  };
  const PathInfo& path_info(Path path) const {
    return paths_[static_cast<std::size_t>(path)];
  }

  /// A flow's walk, as the flow cache keeps it: the rest is in the path
  /// table. The outer source is always the device IP.
  struct CachedWalk {
    Path path = Path::kInvalidVni;
    std::uint8_t route_hits = 0;
    std::uint32_t outer_dst = 0;  // IPv4 rewrite target when not dropped
  };

  /// Walks `packet` through the Walker from `entry_pipe` (a burst of one)
  /// and sorts the walk into its path record. The registry moves exactly
  /// as in a forward() walk ("asic.passes" only when `record_pass_hist`);
  /// no cache, no verdict.
  CachedWalk walk(const net::OverlayPacket& packet, unsigned entry_pipe,
                  asic::WalkSummary& summary, bool record_pass_hist = true);

  /// Bumps the registry's walk counters exactly as a Walker walk of
  /// `path` does — how cache hits account for packets they do not walk.
  void charge(Path path, unsigned entry_pipe, unsigned loopback_pipe,
              unsigned route_hits);

  /// Loopback pipe (1 or 3) of the shard owning `vni` (§4.4).
  unsigned loopback_pipe_of(net::Vni vni) const {
    return 1 + 2 * shard_of(vni);
  }

  // ---- telemetry ----------------------------------------------------------

  /// Bytes that crossed each loopback egress pipe (index = pipe).
  const std::array<std::uint64_t, 4>& shard_pipe_bytes() const {
    return shard_pipe_bytes_;
  }

  /// This device's always-on counter registry: packet, byte and outcome
  /// counts ("xgwh.packets_in", ...), per-table hit/miss counts
  /// ("xgwh.table.route.hit", ...), the walker's per-pipe stage counters
  /// ("asic.pipeN.*"), per-loopback-pipe bytes and a forwarding-latency
  /// histogram. Fleet views merge these snapshots.
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

  /// Occupancy under this gateway's compression config, fed with live
  /// table statistics.
  asic::OccupancyReport occupancy_report() const;

  /// Live workload description (entry counts by family + measured ALPM /
  /// digest stats) — also reused by the controller's water-level checks.
  asic::GatewayWorkload live_workload() const;

  const Config& config() const { return config_; }

  /// Performance envelope of this gateway (Fig. 18): active entry pipes
  /// halve under folding.
  double max_throughput_bps() const;
  double max_packet_rate_pps() const;

  /// The shard (0/1) a VNI's entries land in when splitting is enabled:
  /// a hash of the VNI (§4.4 offers "parity of VNI" as one option; a
  /// hash stays balanced even when VNI assignment correlates with
  /// clusters). Static so load balancers and simulators can agree.
  static unsigned shard_of_vni(net::Vni vni);

 private:
  struct Shard {
    tables::Alpm<tables::VxlanRouteAction> routes;
    tables::DigestVmNcTable mappings;
    std::size_t routes_v4 = 0;
    std::size_t routes_v6 = 0;
    std::size_t maps_v4 = 0;
    std::size_t maps_v6 = 0;
  };
  /// One shard's tables, built at the geometry `config` declares.
  static Shard make_shard(const Config& config);

  /// Shard index (0/1) for a VNI — parity split (§4.4).
  unsigned shard_of(net::Vni vni) const;
  Shard& shard_for(net::Vni vni);
  const Shard& shard_for(net::Vni vni) const;

  // Per-op bodies behind apply().
  dataplane::TableOpStatus apply_install_route(
      net::Vni vni, const net::IpPrefix& prefix,
      tables::VxlanRouteAction action);
  dataplane::TableOpStatus apply_remove_route(net::Vni vni,
                                              const net::IpPrefix& prefix);
  dataplane::TableOpStatus apply_install_mapping(const tables::VmNcKey& key,
                                                 tables::VmNcAction action);
  dataplane::TableOpStatus apply_remove_mapping(const tables::VmNcKey& key);

  /// Cache generation of a walk entering on `vni` toward `dst`: its
  /// read-set stamp, with the destination keyed by its ip32 (see
  /// generations_ below).
  std::uint64_t generation_of(net::Vni vni, const net::IpAddr& dst) const {
    return generations_.stamp(vni, shards_[0].mappings.ip32(dst));
  }

  void build_program();

  // The stages, bound into the PipelineProgram. Each runs over one group
  // of contexts. A stage that decides a path notes it in the context's
  // walk record, so every walk sorts itself into the path table.
  void stage_entry(asic::ContextGroup group);
  void stage_acl(asic::ContextGroup group);
  void stage_route_lookup(asic::ContextGroup group);
  void stage_vm_nc_lookup(asic::ContextGroup group);
  void stage_rewrite(asic::ContextGroup group);
  /// Ends the walk on a drop path with that path's drop reason.
  void drop_on(asic::PacketContext& ctx, Path path);

  /// The walk record of a walk context: its burst position's slot.
  CachedWalk& record_of(const asic::PacketContext& ctx) {
    return batch_.walk[static_cast<std::size_t>(&ctx - batch_.ctx.data())];
  }
  /// Grows the walk scratch to `n` burst positions. It never shrinks, so
  /// the contexts' addresses stay put while a burst is being loaded.
  void reserve(std::size_t n) {
    if (batch_.ctx.size() < n) batch_.ctx.resize(n);
    if (batch_.walk.size() < n) batch_.walk.resize(n);
  }
  /// Loads burst position `i`'s walk context and clears its record.
  asic::PacketContext& load(std::size_t i, const net::OverlayPacket& packet,
                            unsigned entry_pipe);
  /// Walks loaded contexts as one Walker burst and checks that each walk
  /// ended on its path-table row.
  void walk_contexts(std::span<asic::PacketContext* const> burst,
                     bool record_pass_hist);

  /// Writes every Verdict field of `dest` (the batch path emits straight
  /// into the caller's verdict slot) and bumps the outcome counters.
  void finish_into(dataplane::Verdict& dest, const net::OverlayPacket& packet,
                   double now, const CachedWalk& walk);

  /// Entry-pipe pick from the flow hash (the scalar path and the batch
  /// path must agree bit-for-bit).
  unsigned entry_pipe_of(std::uint64_t flow_hash) const {
    return config_.compression.fold
               ? (flow_hash & 1 ? 2u : 0u)
               : static_cast<unsigned>(flow_hash & 3);
  }
  /// Exit egress pipe: folded, the entry-side pipe paired with the
  /// loopback pipe (Ingress 1 -> Egress 0, Ingress 3 -> Egress 2);
  /// unfolded, the entry pipe itself.
  unsigned exit_pipe(unsigned entry_pipe, unsigned loopback_pipe) const {
    return config_.compression.fold ? loopback_pipe - 1 : entry_pipe;
  }

  /// Reusable scratch of the batched fast path (DESIGN.md §15), indexed
  /// by POSITION in the burst's index list (not by the caller's packet
  /// index — positions are dense, indices may stride). A device is
  /// single-writer, so one scratch per device suffices; vectors keep their
  /// capacity across bursts.
  struct BatchScratch {
    std::vector<dataplane::FlowKey> key;
    std::vector<CachedWalk> walk;
    std::vector<std::uint64_t> hash;  // position-indexed flow hashes
    /// The Walker's scratch: one context per burst position, and the
    /// deferred misses (those that do NOT capture — or every packet when
    /// the cache is off) walked as one burst; then the stages' own sweep
    /// scratch.
    std::vector<asic::PacketContext> ctx;
    std::vector<asic::PacketContext*> burst;
    /// The route stage's worklist: one entry per packet still resolving,
    /// with the VNI of its current peer hop (the VM-NC stage reuses it for
    /// its local-route packets and their resolved VNIs).
    struct Hop {
      asic::PacketContext* ctx;
      net::Vni vni;
    };
    std::vector<Hop> work;
    std::vector<Hop> next;
    /// The current hop's worklist split by shard: each entry's pooled
    /// route key and prepared ALPM partition.
    std::array<std::vector<Hop>, 2> shard_hops;
    std::array<std::vector<tables::TcamKey>, 2> shard_keys;
    std::array<std::vector<std::uint32_t>, 2> shard_parts;
    /// How many mappings the VM-NC stage prefetches before looking any up.
    static constexpr std::size_t kVmStrip = 64;
  };
  BatchScratch batch_;

  Config config_;
  std::array<Shard, 2> shards_;
  tables::AclTable acl_;
  /// The fallback rate limiter, in bytes per second.
  tables::TokenBucket fallback_meter_;

  asic::PipelineProgram program_;
  asic::Walker walker_;  // borrows config_.chip and program_

  /// PHV metadata fields the stages carry: each value is the field's Phv
  /// slot (widths declared once, in xgwh.cpp).
  enum Field : asic::FieldId {
    kShard, kScope, kFallback, kResolvedVni, kTunnelIp, kNcIp, kFieldCount
  };
  /// Writes `field` at its declared width.
  void set_field(asic::PacketContext& ctx, Field field, std::uint64_t value,
                 bool bridged = true) const;
  /// The path table (indexed by Path), derived in build_program().
  std::array<PathInfo, kPathCount> paths_{};

  // Flow-cache fast path (single-writer; one cache per device/shard).
  // A cached walk is stamped with generation_of(). Each op bumps its slots
  // to a fresh op_epoch_: ACL changes, health reroutes and DR swaps the
  // global slot, a route op the route slot of every VNI in its peer group,
  // a mapping op the mapping slot of its address's ip32 (colliding v6
  // digests share it). Churn in one tenant or on one VM leaves every other
  // flow's fast path warm.
  dataplane::FlowCache<CachedWalk> flow_cache_;
  std::uint64_t op_epoch_ = 0;  // monotone mutation counter
  dataplane::ReadSetGenerations generations_;
  std::array<std::uint64_t, 4> shard_pipe_bytes_{};

  // Registry + pre-resolved counter handles (hot-path instruments).
  std::unique_ptr<telemetry::Registry> registry_;
  telemetry::Counter* ctr_packets_in_ = nullptr;
  telemetry::Counter* ctr_bytes_in_ = nullptr;
  telemetry::Counter* ctr_forwarded_ = nullptr;
  telemetry::Counter* ctr_fallback_ = nullptr;
  telemetry::Counter* ctr_dropped_ = nullptr;
  telemetry::Counter* ctr_rate_limited_ = nullptr;
  telemetry::Counter* ctr_route_hit_ = nullptr;
  telemetry::Counter* ctr_route_miss_ = nullptr;
  telemetry::Counter* ctr_vm_hit_ = nullptr;
  telemetry::Counter* ctr_vm_miss_ = nullptr;
  telemetry::Counter* ctr_acl_deny_ = nullptr;
  std::array<telemetry::Counter*, 4> ctr_pipe_bytes_{};
  telemetry::Histogram* hist_latency_ = nullptr;
  telemetry::Histogram* hist_passes_ = nullptr;  // the walker's
  // Walker-owned counters charge() bumps for cache hits (resolved by name
  // after walker_.set_registry; no new registrations).
  telemetry::Counter* ctr_asic_packets_ = nullptr;
  telemetry::Counter* ctr_asic_drops_ = nullptr;
  std::array<telemetry::Counter*, 4> ctr_asic_ingress_{};
  std::array<telemetry::Counter*, 4> ctr_asic_egress_{};
};

}  // namespace sf::xgwh

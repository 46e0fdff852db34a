// XGW-H: the Tofino-based hardware gateway (one SfChip running the Sailfish
// gateway program).
//
// Datapath (folded mode, Fig. 13/14 of the paper):
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
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "asic/chip_config.hpp"
#include "asic/pipeline.hpp"
#include "asic/placer.hpp"
#include "asic/walker.hpp"
#include "dataplane/flow_cache.hpp"
#include "dataplane/gateway.hpp"
#include "dataplane/table_programmer.hpp"
#include "tables/alpm.hpp"
#include "tables/digest_table.hpp"
#include "tables/service_tables.hpp"
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
    /// Hash buckets of each shard's VM-NC table (4 ways each). Sized for
    /// the expected mapping count; fleet simulations spawn many devices,
    /// so the default stays modest.
    std::size_t vm_table_buckets = 1 << 14;
    /// Flow-cache slots in front of the pipeline walk (0 disables; the
    /// default honors the SF_FLOW_CACHE environment gate). The cache table
    /// is allocated lazily on first insert, so idle fleet devices cost
    /// nothing.
    std::size_t flow_cache_entries = dataplane::default_flow_cache_entries();
  };

  explicit XgwH(Config config);

  // ---- controller-facing table API (dataplane::TableProgrammer) ----------

  /// Applies a batch op-by-op. Cached verdicts of a mutated VNI lazily
  /// miss and re-walk; other VNIs keep their fast path (per-VNI
  /// generations — DESIGN.md §13). The publish epoch reported per op is
  /// the device's monotone mutation counter.
  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override;
  void add_acl_rule(tables::AclRule rule);

  /// Invalidates every cached verdict, across all VNIs: the cluster/DR
  /// layers call this on health reroutes and standby swaps, and ACL
  /// changes escalate here too (rules match any VNI).
  void invalidate_fast_path() {
    ++op_epoch_;
    ++global_gen_;
  }
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
    if (!flow_cache_.enabled()) return false;
    return flow_cache_.contains(
        dataplane::make_flow_key(packet.vni, packet.inner),
        effective_generation(packet.vni));
  }

  std::size_t route_count() const;
  std::size_t mapping_count() const;

  /// Exact-presence checks, used by the controller's consistency audit.
  bool has_route(net::Vni vni, const net::IpPrefix& prefix) const;
  bool has_mapping(const tables::VmNcKey& key) const;

  // ---- data plane (dataplane::Gateway) ------------------------------------

  /// Processes one packet with full chip observables. `now` is the
  /// simulation clock (seconds), used by the fallback rate limiter;
  /// `ingress_pipe` defaults to a flow-hash pick among the entry pipes.
  ForwardResult forward(const net::OverlayPacket& packet, double now = 0,
                        std::optional<unsigned> ingress_pipe = std::nullopt);

  /// Gateway interface: forward() sliced to the unified verdict.
  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now) override {
    return forward(packet, now);
  }

  /// The SoA batched fast path (DESIGN.md §15): cache probes stay in
  /// strict packet order (FlowCacheStats byte-exact), non-capture misses
  /// walk the pipeline as a column-major batch with software-pipelined
  /// table lookups, and verdicts emit in packet order. Byte-identical to
  /// looping process() — verdicts, registry snapshots and cache stats.
  void process_batch(std::span<const net::OverlayPacket> packets, double now,
                     std::span<dataplane::Verdict> out) override;

  /// Hash-threaded form: `flow_hashes[i]` must equal
  /// `packets[i].inner.hash()` (the sharded engine's shard-steering hash).
  /// Skips the per-packet tuple rehash for entry-pipe and cache-key
  /// derivation.
  void process_batch(std::span<const net::OverlayPacket> packets,
                     std::span<const std::uint64_t> flow_hashes, double now,
                     std::span<dataplane::Verdict> out) override;

  /// The real batched fast path: the sharded engine hands each shard
  /// sub-spans of one shared index list, so packets and verdicts are
  /// never gathered/scattered through per-burst copies. `flow_hashes` may
  /// be empty (hashes are then computed here, once per packet).
  void process_batch_indexed(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double now,
                             std::span<dataplane::Verdict> out) override;

  using dataplane::Gateway::process_batch;  // allocating convenience form

  // ---- telemetry ----------------------------------------------------------

  /// Bytes that crossed each loopback egress pipe (index = pipe).
  const std::array<std::uint64_t, 4>& shard_pipe_bytes() const {
    return shard_pipe_bytes_;
  }

  struct Telemetry {
    std::uint64_t packets_in = 0;
    std::uint64_t packets_forwarded = 0;
    std::uint64_t packets_fallback = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t fallback_rate_limited = 0;
    std::uint64_t bytes_in = 0;
  };
  const Telemetry& telemetry() const { return telemetry_; }

  /// This device's always-on counter registry: the struct above plus
  /// per-table hit/miss counts ("xgwh.table.route.hit", ...), the walker's
  /// per-pipe stage counters ("asic.pipeN.*"), per-loopback-pipe bytes and
  /// a forwarding-latency histogram. Fleet views merge these snapshots.
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

  struct CounterDelta {
    telemetry::Counter* counter = nullptr;
    std::uint64_t delta = 0;
  };

  /// The per-flow summary the cache replays in place of a pipeline walk:
  /// the walk's verdict inputs, the packet mutation (outer header
  /// rewrite), and the exact per-counter deltas the walk produced so a
  /// replayed hit leaves the telemetry registry byte-identical to a walk.
  ///
  /// The deltas live in a shared flyweight table (`delta_sets_`), not in
  /// the entry: distinct walks produce only a handful of distinct delta
  /// patterns (path x pipes x passes), so interning keeps the cache entry
  /// at ~2 cache lines and every hit replays a vector that stays hot.
  struct CachedWalk {
    static constexpr std::uint32_t kNoDeltaSet = 0xFFFFFFFF;

    bool dropped = false;
    std::uint8_t drop_code = 0;
    std::uint8_t act = 0;  // kAction metadata (valid when !dropped)
    bool set_outer_src = false;
    bool set_outer_dst = false;
    std::uint8_t passes = 0;
    std::uint8_t egress_pipe = 0;
    std::uint16_t bridged_bits = 0;
    std::uint32_t delta_set = kNoDeltaSet;  // index into delta_sets_
    net::IpAddr outer_src;
    net::IpAddr outer_dst;
  };

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

  /// Invalidates cached verdicts that may depend on `vni`: bumps the
  /// VNI's own generation, or the global one when the VNI ever took part
  /// in a peer route (a cached verdict may have crossed the hop).
  void note_vni_mutation(net::Vni vni);
  /// Composite cache generation for a packet entering on `vni`.
  std::uint64_t effective_generation(net::Vni vni) const {
    const auto it = vni_gens_.find(vni);
    const std::uint64_t local = it == vni_gens_.end() ? 0 : it->second;
    return (global_gen_ << 32) | (local & 0xFFFFFFFFu);
  }

  void build_program();

  // Stage implementations (bound into the PipelineProgram).
  void stage_entry(asic::PacketContext& ctx);
  void stage_acl(asic::PacketContext& ctx);
  void stage_route_lookup(asic::PacketContext& ctx, unsigned shard);
  void stage_vm_nc_lookup(asic::PacketContext& ctx, unsigned shard);
  void stage_rewrite(asic::PacketContext& ctx);

  // Fast-path plumbing.
  void snapshot_walk_counters();
  CachedWalk summarize_walk(const asic::PacketContext& ctx,
                            const asic::WalkSummary& walked,
                            bool capture_deltas);
  std::uint32_t intern_delta_set(const std::vector<CounterDelta>& deltas);
  ForwardResult finish(const net::OverlayPacket& packet, double now,
                       const CachedWalk& walk, bool replayed);
  /// finish() body writing straight into the caller's verdict slot — the
  /// batch path emits without the intermediate ForwardResult copy. Every
  /// Verdict field of `dest` is assigned; `extras`, when given, receives
  /// the ForwardResult-only fields.
  void finish_into(dataplane::Verdict& dest, const net::OverlayPacket& packet,
                   double now, const CachedWalk& walk, bool replayed,
                   ForwardResult* extras = nullptr);

  /// Entry-pipe pick from the flow hash (the scalar path and the batch
  /// path must agree bit-for-bit).
  unsigned entry_pipe_of(std::uint64_t flow_hash) const {
    return config_.compression.fold
               ? (flow_hash & 1 ? 2u : 0u)
               : static_cast<unsigned>(flow_hash & 3);
  }

  /// Walks the deferred (non-capture-miss) packets of the current burst as
  /// a column-major SoA batch and fills their CachedWalk summaries.
  void flush_soa_walk(std::span<const net::OverlayPacket> packets,
                      std::span<const std::uint32_t> indices);

  /// Reusable column-major scratch of the batched fast path (DESIGN.md
  /// §15). A device is single-writer, so one scratch per device suffices;
  /// vectors keep their capacity across bursts.
  struct BatchScratch {
    // Per-packet columns, indexed by POSITION in the burst's index list
    // (not by the caller's packet index — positions are dense, indices
    // may stride).
    std::vector<dataplane::FlowKey> key;
    std::vector<std::uint64_t> gen;
    std::vector<CachedWalk> walk;
    std::vector<std::uint8_t> replayed;
    std::vector<std::uint64_t> hash;  // position-indexed flow hashes
    std::vector<std::uint32_t> idx;   // identity list for contiguous calls
    /// Burst positions whose walk is deferred to the SoA sweep (cache
    /// misses that do NOT capture — or every packet when the cache is
    /// off).
    std::vector<std::uint32_t> pend;

    // SoA walk columns, indexed by position in `pend`.
    std::vector<net::Vni> vni;
    std::vector<unsigned> entry_pipe;
    std::vector<unsigned> lb_pipe;
    std::vector<unsigned> exit_pipe;
    std::vector<std::uint8_t> alive;
    std::vector<std::uint8_t> drop_code;
    std::vector<std::uint8_t> scope;  // tables::RouteScope of the route hit
    std::vector<std::uint8_t> fallback;
    std::vector<std::uint8_t> has_nc;
    std::vector<std::uint32_t> tunnel_ip;
    std::vector<std::uint32_t> nc_ip;
    std::vector<tables::TcamKey> rkey;    // pooled route key per hop
    std::vector<std::uint32_t> rpart;     // prepared ALPM partition
    std::vector<std::uint32_t> work;      // current sweep's worklist
    std::vector<std::uint32_t> next_work;
    // Per-pipeline-shard gather lists for the batched directory sweep:
    // the route stage groups the worklist by shard so each shard's ALPM
    // sees one contiguous key span to software-pipeline.
    std::vector<tables::TcamKey> shard_keys[2];
    std::vector<std::uint32_t> shard_pos[2];
    std::vector<std::uint32_t> shard_part[2];

    /// Reused walk state for capture misses and the scalar forward() path
    /// (borrowed-walker API; the Phv allocation amortizes across packets).
    asic::PacketContext walk_ctx;
  };
  BatchScratch batch_;

  Config config_;
  std::array<Shard, 2> shards_;
  tables::AclTable acl_;
  tables::MeterTable fallback_meter_;
  std::size_t fallback_meter_index_ = 0;

  asic::PipelineProgram program_;
  std::unique_ptr<asic::Walker> walker_;

  // Compiled PHV field handles (interned once in build_program()).
  asic::FieldId fid_shard_ = asic::kInvalidFieldId;
  asic::FieldId fid_scope_ = asic::kInvalidFieldId;
  asic::FieldId fid_fallback_ = asic::kInvalidFieldId;
  asic::FieldId fid_resolved_vni_ = asic::kInvalidFieldId;
  asic::FieldId fid_tunnel_ip_ = asic::kInvalidFieldId;
  asic::FieldId fid_nc_ip_ = asic::kInvalidFieldId;
  asic::FieldId fid_action_ = asic::kInvalidFieldId;

  // Flow-cache fast path (single-writer; one cache per device/shard).
  // Invalidation is per-VNI: entries carry the composite generation of
  // their entry VNI, so a route churn in one tenant leaves every other
  // tenant's fast path warm.
  dataplane::FlowCache<CachedWalk> flow_cache_;
  std::uint64_t op_epoch_ = 0;    // monotone mutation counter
  std::uint64_t global_gen_ = 0;  // all-VNI invalidation generation
  std::unordered_map<net::Vni, std::uint64_t> vni_gens_;
  std::unordered_set<net::Vni> peered_vnis_;
  std::vector<telemetry::Counter*> tracked_counters_;
  std::vector<std::uint64_t> walk_baseline_;
  std::vector<CounterDelta> scratch_deltas_;  // miss-side staging buffer
  /// Interned walk-delta patterns (flyweight; counter pointers are stable
  /// for the registry's lifetime, so sets never invalidate).
  std::vector<std::vector<CounterDelta>> delta_sets_;
  std::unordered_map<std::uint64_t, std::uint32_t> delta_set_index_;

  std::array<std::uint64_t, 4> shard_pipe_bytes_{};
  Telemetry telemetry_;

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
  telemetry::Histogram* hist_passes_ = nullptr;  // walker's, for hit replay
  // Walker-owned counters the SoA batch walk bumps in bulk (resolved by
  // name after walker_->set_registry; no new registrations).
  telemetry::Counter* ctr_asic_packets_ = nullptr;
  telemetry::Counter* ctr_asic_drops_ = nullptr;
  std::array<telemetry::Counter*, 4> ctr_asic_ingress_{};
  std::array<telemetry::Counter*, 4> ctr_asic_egress_{};
};

}  // namespace sf::xgwh

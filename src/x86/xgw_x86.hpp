// XGW-x86: the DPDK-style software gateway node (§2.2).
//
// Functionally it is the superset gateway: full VXLAN routing + VM-NC
// tables in DRAM (the RCU tables of rcu/rcu_lpm.hpp and
// rcu/rcu_exact_table.hpp), the stateful SNAT engine, and the tunnel
// rewrite — everything XGW-H offloads lands here. Its weakness
// is the performance model: run-to-completion cores fed by RSS flow
// hashing, so heavy-hitter flows overload single cores (Figs. 4-7), which
// simulate_interval() reproduces.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <memory>

#include "dataplane/flow_cache.hpp"
#include "dataplane/gateway.hpp"
#include "dataplane/read_set.hpp"
#include "dataplane/table_programmer.hpp"
#include "net/packet.hpp"
#include "rcu/epoch.hpp"
#include "rcu/rcu_exact_table.hpp"
#include "rcu/rcu_lpm.hpp"
#include "tables/entry.hpp"
#include "telemetry/registry.hpp"
#include "x86/cost_model.hpp"
#include "x86/rss.hpp"
#include "x86/snat.hpp"

namespace sf::x86 {

/// The software gateway's verdict: the unified dataplane fields plus the
/// SNAT binding when one was created.
struct X86Result : dataplane::Verdict {
  std::optional<SnatBinding> snat;
};

/// Offered load of one flow during a simulation interval.
struct FlowRate {
  net::FiveTuple tuple;
  double pps = 0;
  double bps = 0;
};

/// One CPU core's load during an interval.
struct CoreLoad {
  double offered_pps = 0;
  double processed_pps = 0;
  double dropped_pps = 0;
  double utilization = 0;  // offered / core capacity (can exceed 1)
  std::size_t flows = 0;
  double top1_pps = 0;  // heaviest flow on this core
  double top2_pps = 0;  // second heaviest
};

struct IntervalReport {
  std::vector<CoreLoad> cores;
  double offered_pps = 0;
  double offered_bps = 0;
  double dropped_pps = 0;
  double drop_rate = 0;  // dropped / offered (packets)
  double max_core_utilization = 0;
};

class XgwX86 : public dataplane::Gateway, public dataplane::TableProgrammer {
 public:
  struct Config {
    X86CostModel model;
    net::Ipv4Addr device_ip = net::Ipv4Addr(10, 0, 1, 1);
    SnatEngine::Config snat{
        {net::Ipv4Addr(203, 0, 113, 1)}, 1024, 65535, 300};
    std::uint32_t rss_seed = 0;
    /// Flow-cache slots in front of the route/mapping lookup chain
    /// (0 disables; default honors the SF_FLOW_CACHE gate). SNAT verdicts
    /// are never cached — the session table is stateful.
    std::size_t flow_cache_entries = dataplane::default_flow_cache_entries();
  };

  explicit XgwX86(Config config);

  // ---- controller-facing table API (dataplane::TableProgrammer) ----------

  /// Applies a batch transactionally at one new table version: every op
  /// of the batch becomes visible to forwarding at the same publish
  /// epoch, mid-interval, from any mutator thread (tables are RCU —
  /// rcu/rcu_lpm.hpp, DESIGN.md §13).
  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override;

  /// Hit/miss/eviction statistics of the flow cache.
  const dataplane::FlowCacheStats& flow_cache_stats() const {
    return flow_cache_.stats();
  }

  /// Latest published table version (the publish epoch of the last batch).
  std::uint64_t table_version() const { return seq_; }

  /// Forwarding reads the tables at this version; nullopt (default) reads
  /// the latest published version. The deterministic mid-interval replay
  /// sets it per packet to the packet's required version; values must be
  /// nondecreasing. Callable from the forwarding thread while the mutator
  /// thread applies batches.
  void set_lookup_seq(std::optional<std::uint64_t> seq) {
    lookup_seq_.store(seq.value_or(kLookupLatest),
                      std::memory_order_release);
  }

  /// Reclaims table versions below `keep_from`: promises that no future
  /// lookup will be pinned under it. Mutator-thread only; also runs
  /// automatically every few hundred mutations.
  void collect_garbage(std::uint64_t keep_from);

  /// Dead-but-unreclaimed nodes across the route/mapping tables.
  std::size_t limbo_nodes() const {
    return routes_.limbo_size() + mappings_.limbo_size();
  }

  std::size_t route_count() const { return routes_.live_size(); }
  std::size_t mapping_count() const { return mappings_.live_size(); }

  /// Seconds the controller needs to install this node's current tables
  /// from scratch — the ">10 minutes" pain of §2.3.
  double full_install_seconds() const;

  // ---- functional data path (dataplane::Gateway) --------------------------

  /// Processes one packet with the SNAT-binding extra.
  X86Result forward(const net::OverlayPacket& packet, double now = 0);

  /// Punt-path entry: identical to forward() except the verdict is never
  /// admitted to this node's flow cache. Meter-degraded punts are
  /// transient overload spillover, not steady-state flows — caching them
  /// would let a shed tenant's packets evict legitimate fast-path entries
  /// (and the guard tests assert they never land in any cache).
  X86Result forward_punted(const net::OverlayPacket& packet, double now = 0);

  /// Gateway interface: forward() sliced to the unified verdict.
  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now) override {
    return forward(packet, now);
  }

  /// The one batch entry point (the sharded engine feeds it; the
  /// contiguous forms reach it through Gateway's defaults): the per-packet
  /// loop of process(), striding the shared index list with packet,
  /// verdict and cache-slot lookahead, and deriving each flow-cache key
  /// from the precomputed RSS hash. `flow_hashes` is empty (tuples are
  /// then rehashed) or packets.size() long; anything else throws
  /// std::invalid_argument. Byte-identical to looping process().
  void process_batch_indexed(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double now,
                             std::span<dataplane::Verdict> out) override;

  using dataplane::Gateway::process_batch;

  /// Internet response path: a packet addressed to a SNAT binding is
  /// translated back and re-encapsulated toward the VM's NC.
  std::optional<net::OverlayPacket> process_response(
      const SnatBinding& binding, const net::IpAddr& peer_ip,
      std::uint16_t peer_port, std::uint16_t payload_size, double now);

  SnatEngine& snat() { return snat_; }
  const SnatEngine& snat() const { return snat_; }

  // ---- performance model ---------------------------------------------------

  /// Distributes the offered flows over cores via RSS and reports per-core
  /// load and drops for one interval.
  IntervalReport simulate_interval(std::span<const FlowRate> flows) const;

  const Config& config() const { return config_; }

  /// This node's counter registry: packet/byte outcomes, table ops, SNAT
  /// session events and a latency histogram ("x86.*" names).
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

 private:
  struct VmNcKeyHasher {
    std::uint64_t operator()(const tables::VmNcKey& key) const {
      return net::hash_combine(net::mix64(key.vni),
                               net::hash_ip(key.vm_ip));
    }
  };

  /// Cached non-SNAT verdict: the action, the drop reason, and the outer
  /// rewrite target (outer_src is always this device's IP).
  struct CachedVerdict {
    dataplane::Action action = dataplane::Action::kDrop;
    dataplane::DropReason reason = dataplane::DropReason::kNone;
    net::IpAddr outer_dst;
  };

  /// `flow_hash`, when non-null, is the packet's precomputed tuple hash —
  /// the cache key derives from it instead of rehashing the 5-tuple
  /// (dataplane::make_flow_key guarantees both derivations agree).
  X86Result forward_impl(const net::OverlayPacket& packet, double now,
                         bool allow_cache,
                         const std::uint64_t* flow_hash = nullptr);

  // Mutator-side helpers (see apply()).
  dataplane::TableOpStatus apply_one(const dataplane::TableOp& op);

  static constexpr std::uint64_t kLookupLatest =
      std::numeric_limits<std::uint64_t>::max();

  Config config_;
  rcu::EpochManager epoch_;
  rcu::RcuLpm<tables::VxlanRouteAction> routes_;
  rcu::RcuExactTable<tables::VmNcKey, tables::VmNcAction, VmNcKeyHasher>
      mappings_;
  /// Flow-cache stamps: each op bumps its read-set slots to its batch's
  /// version before the batch is published, a route op those of its peer
  /// group, a mapping op the slot of its address. A reader pinned at r
  /// replays or fills the cache only when its flow's stamp is ≤ r, so a
  /// replayed packet never sees state newer than its pin.
  dataplane::ReadSetGenerations generations_;
  mutable rcu::EpochManager::Reader reader_{epoch_};
  std::uint64_t seq_ = 0;             // mutator-owned table version
  std::uint64_t last_collect_seq_ = 0;
  std::atomic<std::uint64_t> lookup_seq_{kLookupLatest};
  SnatEngine snat_;
  RssIndirection rss_;

  dataplane::FlowCache<CachedVerdict> flow_cache_;

  std::unique_ptr<telemetry::Registry> registry_;
  telemetry::Counter* ctr_packets_in_ = nullptr;
  telemetry::Counter* ctr_bytes_in_ = nullptr;
  telemetry::Counter* ctr_forwarded_ = nullptr;
  telemetry::Counter* ctr_snat_ = nullptr;
  telemetry::Counter* ctr_snat_failures_ = nullptr;
  telemetry::Counter* ctr_dropped_ = nullptr;
  telemetry::Counter* ctr_table_ops_ = nullptr;
  telemetry::Histogram* hist_latency_ = nullptr;
};

}  // namespace sf::x86

// The central controller (§4.3, §6.1): owns the desired table state,
// splits it horizontally across XGW-H clusters by VNI, fans installs out
// to every device, mirrors everything to the XGW-x86 fleet (via a hook),
// monitors table water levels, closes sales when a cluster fills up, and
// audits device tables for consistency against the desired state.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "asic/placement.hpp"
#include "cluster/cluster.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/update_queue.hpp"
#include "core/rate_limiter.hpp"
#include "dataplane/table_programmer.hpp"
#include "guard/circuit_breaker.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/registry.hpp"
#include "workload/topology.hpp"

namespace sf::cluster {

/// The fan-out unit is the shared dataplane one.
using TableOp = dataplane::TableOp;

class Controller : public dataplane::TableProgrammer {
 public:
  struct Config {
    XgwHCluster::Config cluster_template;
    std::size_t max_clusters = 8;
    /// Clusters built up front ("cluster construction", §6.1); with
    /// several open, least-loaded assignment spreads tenants evenly
    /// instead of filling clusters sequentially.
    std::size_t initial_clusters = 1;
    /// A cluster whose route count reaches this stops taking new VPCs
    /// ("close the sale of the cluster's resources", §6.1).
    std::size_t routes_water_level = 200'000;
    std::size_t mappings_water_level = 400'000;
    /// Update-channel budget (table ops per second; 0 disables). Protects
    /// the devices' install path (§2.3's install-speed pain): ops beyond
    /// the budget return kRateLimited and must be retried. A positive rate
    /// builds a core::TokenBucket of `table_op_burst` tokens, which must
    /// then be positive too.
    double table_op_rate_limit = 0;
    std::size_t table_op_burst = 64;
    /// Circuit breaker on the update channel (sf::guard). Disabled by
    /// default (trip_after == 0): `breaker.trip_after` consecutive
    /// channel refusals stop all push attempts for `open_cooldown_s`,
    /// parking new ops straight onto the retry queue (order kept, nothing
    /// lost), then probe with the queue head.
    guard::CircuitBreaker::Config breaker;
    /// When every cluster is at its water level, admit the VPC into the
    /// *software tier* instead of refusing the sale: its desired state is
    /// recorded and mirrored (the XGW-x86 fleet — and the DPU tier, when
    /// built — holds the complete tables) but no device is programmed and
    /// the VNI director never learns the VNI. The region serves such
    /// tenants entirely below the ASIC (DESIGN.md §11). Off by default:
    /// existing deployments keep refusing, byte-identically.
    bool admit_overflow = false;
    /// Incremental ASIC placement engine (DESIGN.md §16): every applied
    /// hardware-tier table op is accumulated into a WorkloadDelta and
    /// driven through Placer::replace() at the end of each apply() batch,
    /// so TableOpBatch churn maintains a live layout instead of forcing
    /// full recomputes. Software-tier ops are excluded (they occupy no
    /// ASIC memory). Off by default: nothing is built, snapshots stay
    /// byte-identical.
    bool placement_enabled = false;
    asic::PlacementEngine::Config placement;
  };

  /// Sentinel cluster id of software-tier (overflow-admitted) VPCs.
  static constexpr std::uint32_t kSoftwareTier = 0xffffffffu;

  explicit Controller(Config config);

  /// Mirror hook: receives every op (the Region wires the XGW-x86 fleet
  /// here — software holds the complete tables).
  void set_mirror(std::function<void(const TableOp&)> mirror) {
    mirror_ = std::move(mirror);
  }

  // ---- provisioning --------------------------------------------------------

  /// Admits a VPC: assigns it to a cluster (opening a new one if needed)
  /// and installs its tables. Returns false when the region is out of
  /// capacity (sales closed).
  bool add_vpc(const workload::VpcRecord& vpc);

  /// Installs a whole region topology, in admission_order().
  std::size_t install_topology(const workload::RegionTopology& region);

  /// VPC indices with each peer-connected component admitted contiguously:
  /// add_vpc co-locates a VPC with an *already assigned* peer, so a
  /// component must not be interleaved with others (its members could
  /// otherwise seed different clusters before the connecting vertex
  /// arrives).
  static std::vector<std::size_t> admission_order(
      const workload::RegionTopology& region);

  /// Desired-state edits (dataplane::TableProgrammer v2). Every op in the
  /// batch runs the full admission pipeline independently and gets its own
  /// typed status: kNotFound means the VNI has no admitted VPC (installs)
  /// or the entry is absent (removes); kRateLimited means the
  /// update-channel budget is exhausted and nothing was changed;
  /// kUnknownTarget means the VPC's recorded cluster id no longer names a
  /// live cluster (dangling placement) — nothing was changed, and the op
  /// must not be retried until the placement is repaired.
  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override;

  /// Advances the controller clock (seconds) feeding the update-channel
  /// rate limiter, then redelivers any deferred (rate-limited) pushes
  /// that are due. Returns the number of deferred ops applied.
  std::size_t advance_clock(double now);

  /// Drains the retry queue *mid-interval*: advances the clock through
  /// `slices` evenly spaced virtual instants inside [start, start+length)
  /// so deferred pushes land interleaved with the interval's packets
  /// instead of piling up at interval boundaries (the churn bench's
  /// tenant-onboarding wave uses this). Returns total ops replayed.
  std::size_t drain_mid_interval(double start, double length,
                                 std::size_t slices);

  /// Reliable push: applies the op now when the update channel allows it,
  /// otherwise parks it on the retry queue — provisioning (add_vpc) and
  /// recovery replays go through here, so a rate-limited burst converges
  /// instead of silently losing entries. kRateLimited means "deferred,
  /// not lost".
  dataplane::TableOpStatus push_op(const TableOp& op);

  /// Ops parked on the retry queue awaiting redelivery.
  std::size_t deferred_op_count() const { return retry_queue_->pending(); }
  const UpdateQueue::Stats& retry_stats() const {
    return retry_queue_->stats();
  }

  /// The update-channel circuit breaker; nullptr when not configured.
  const guard::CircuitBreaker* breaker() const { return breaker_.get(); }

  /// The live incremental placement engine; nullptr unless
  /// Config::placement_enabled.
  const asic::PlacementEngine* placement_engine() const {
    return placement_engine_.get();
  }

  /// Models losing the update channel to the devices entirely: while down,
  /// every table push is deferred (direct install/remove calls return
  /// kRateLimited) and nothing drains until the channel returns. This is
  /// the only channel flag; the retry queue knows nothing of it.
  void set_update_channel_up(bool up);
  bool update_channel_up() const { return update_channel_up_; }

  /// Models a controller brownout: the channel is nominally up (retries
  /// still attempt delivery) but every attempt is refused. Unlike a hard
  /// outage this keeps feeding failures to the circuit breaker, so a
  /// configured breaker trips, short-circuits new pushes straight onto
  /// the retry queue, probes half-open against the still-degraded
  /// channel, and only closes once the brownout is cleared.
  void set_update_channel_degraded(bool degraded);
  bool update_channel_degraded() const { return update_channel_degraded_; }

  /// Moves a VPC's entries to another cluster and re-points the VNI
  /// director — §4.3's "precisely manage the traffic load on a particular
  /// cluster simply by adding or deleting the corresponding entries".
  /// Peered VPCs move together (the whole peer group migrates). Returns
  /// false for unknown VNIs or an out-of-range target.
  bool migrate_vpc(net::Vni vni, std::uint32_t target_cluster);

  // ---- steering / data plane ------------------------------------------------

  std::optional<std::uint32_t> cluster_for(net::Vni vni) const {
    return director_.cluster_for(vni);
  }
  const VniDirector& director() const { return director_; }

  /// True when `vni` was admitted into the software tier (no cluster).
  bool is_overflow(net::Vni vni) const {
    auto it = vpcs_.find(vni);
    return it != vpcs_.end() && it->second.cluster_id == kSoftwareTier;
  }
  /// Software-tier VPCs admitted so far.
  std::size_t overflow_count() const { return overflow_vpcs_; }

  /// Routes a packet to its VNI's cluster. Drops when the VNI is unknown.
  xgwh::ForwardResult process(const net::OverlayPacket& packet,
                              double now = 0);

  /// The cluster's table interface — every device-programming path in the
  /// controller goes through this, never through concrete cluster types.
  dataplane::TableProgrammer& programmer(std::uint32_t cluster_id) {
    return *clusters_.at(cluster_id);
  }

  // ---- cluster access --------------------------------------------------------

  std::size_t cluster_count() const { return clusters_.size(); }
  XgwHCluster& cluster(std::size_t index) { return *clusters_.at(index); }
  const XgwHCluster& cluster(std::size_t index) const {
    return *clusters_.at(index);
  }

  // ---- monitoring -------------------------------------------------------------

  struct ConsistencyReport {
    std::size_t entries_checked = 0;
    std::size_t missing_on_device = 0;   // desired but absent
    std::size_t devices_checked = 0;
  };

  /// Audits one cluster's devices against the desired state (§6.1:
  /// periodic consistency checks after table download).
  ConsistencyReport check_consistency(std::size_t cluster_index) const;

  /// Route entries per cluster (the Fig. 23 series).
  std::vector<std::size_t> cluster_route_counts() const;

  /// Control-plane counters: table ops fanned out, VPC admissions and
  /// refusals, migrations, clusters opened, packets steered.
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

  /// The newest 256 control-plane events: provisioning, admission-refused
  /// alerts, water levels, migrations, breaker and update-channel
  /// transitions, and the failovers the recovery machinery records.
  telemetry::EventJournal& journal() { return *journal_; }
  const telemetry::EventJournal& journal() const { return *journal_; }

  /// Region-wide counter snapshot: this controller's own registry merged
  /// with every device registry, prefixed "clusterC.deviceD.".
  telemetry::Snapshot telemetry_snapshot() const;

  /// Each cluster's fraction of region bytes, from the devices'
  /// "xgwh.bytes_in" counters. All-zero traffic yields all zeros.
  std::vector<double> cluster_traffic_share() const;

  const Config& config() const { return config_; }

 private:
  struct VpcState {
    std::uint32_t cluster_id = 0;
    std::vector<std::pair<net::IpPrefix, tables::VxlanRouteAction>> routes;
    std::vector<std::pair<tables::VmNcKey, tables::VmNcAction>> mappings;
  };

  /// Test seam: lets regression tests forge VPC placement state (e.g. a
  /// dangling cluster id) without widening the public surface.
  friend struct ControllerTestPeer;

  /// One batched op of any kind through the admission pipeline: VPC
  /// lookup, placement check, a remove's entry check, one channel token,
  /// device fan-out, desired state, placement delta, mirror, counter.
  dataplane::TableOpStatus apply_one(const TableOp& op);
  /// kUnknownTarget when a hardware-tier VPC's cluster id is dangling.
  bool placement_live(std::uint32_t cluster_id) const {
    return cluster_id == kSoftwareTier || cluster_id < clusters_.size();
  }

  /// Picks (or opens) a cluster with capacity; nullopt when sales close.
  std::optional<std::uint32_t> assign_cluster();
  void mirror(const TableOp& op);
  /// Pushes the batch's accumulated workload delta through the placement
  /// engine (no-op when disabled or the delta is empty).
  void flush_placement_delta();
  /// One update-channel token: refused while the channel is down or
  /// browned out, or when the budget is spent. Every outcome feeds the
  /// circuit breaker when one is configured.
  bool take_op_token();
  /// Breaker feedback with trip/close journaling (no-ops when absent).
  void breaker_failure();
  void breaker_success();

  Config config_;
  std::vector<std::unique_ptr<XgwHCluster>> clusters_;
  VniDirector director_;
  std::unordered_map<net::Vni, VpcState> vpcs_;
  std::size_t overflow_vpcs_ = 0;
  std::function<void(const TableOp&)> mirror_;

  double clock_now_ = 0;
  /// Built only when table_op_rate_limit > 0.
  std::optional<core::TokenBucket> op_budget_;
  bool update_channel_up_ = true;
  bool update_channel_degraded_ = false;
  /// Redelivery of rate-limited pushes; targets this controller itself.
  std::unique_ptr<UpdateQueue> retry_queue_;
  /// Built only when configured (trip_after > 0).
  std::unique_ptr<guard::CircuitBreaker> breaker_;
  /// Built only when Config::placement_enabled.
  std::unique_ptr<asic::PlacementEngine> placement_engine_;
  /// Hardware-tier entry churn accumulated since the last flush.
  asic::WorkloadDelta pending_placement_delta_;

  std::unique_ptr<telemetry::Registry> registry_;
  std::unique_ptr<telemetry::EventJournal> journal_;
  /// Ops applied, one counter per TableOp::Kind.
  std::array<telemetry::Counter*, 4> ctr_ops_applied_{};
  telemetry::Counter* ctr_vpcs_admitted_ = nullptr;
  telemetry::Counter* ctr_admission_refused_ = nullptr;
  telemetry::Counter* ctr_migrations_ = nullptr;
  telemetry::Counter* ctr_clusters_opened_ = nullptr;
  telemetry::Counter* ctr_packets_ = nullptr;
  telemetry::Counter* ctr_unknown_vni_ = nullptr;
  telemetry::Counter* ctr_ops_rate_limited_ = nullptr;
  telemetry::Counter* ctr_ops_deferred_ = nullptr;
  telemetry::Counter* ctr_ops_replayed_ = nullptr;
  // Registered only when admit_overflow is set, so refusing controllers
  // keep their telemetry snapshots byte-identical.
  telemetry::Counter* ctr_overflow_admitted_ = nullptr;
  // Registered only when the breaker is built, so unconfigured
  // controllers keep their telemetry snapshots byte-identical.
  telemetry::Counter* ctr_breaker_trips_ = nullptr;
  telemetry::Counter* ctr_breaker_reopens_ = nullptr;
  telemetry::Counter* ctr_breaker_closes_ = nullptr;
  telemetry::Counter* ctr_breaker_short_circuited_ = nullptr;
};

}  // namespace sf::cluster

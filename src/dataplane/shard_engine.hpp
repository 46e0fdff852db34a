// The deterministic parallel executor: a worker pool for independent tasks
// (SailfishRegion::simulate_interval's chunked classification and per-node
// simulation) and the sharded packet-batch path, process_packets.
//
// Determinism contract: results are byte-identical for every thread count.
// process_packets makes that hold by construction:
//
//   * packets are partitioned by a pure hash of their 5-tuple (the same
//     RSS-style flow hash the steering uses) modulo a FIXED shard count —
//     never the thread count — so which shard owns which packet is a
//     property of the workload, not of the machine;
//   * each shard's packets reach its own gateway in ascending input order,
//     and verdicts land only in the packet's own output slot.
//
// Threads only decide which worker executes which shard; they never change
// what is computed or in which order.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dataplane/gateway.hpp"
#include "dataplane/table_programmer.hpp"
#include "dataplane/thread_pool.hpp"

namespace sf::dataplane {

/// Shape of a sharded run: a fixed shard count (the determinism unit) and
/// the worker parallelism to spread shards over.
struct ShardPlan {
  std::size_t shards = 16;
  std::size_t threads = 1;
  /// Burst size fed to each shard's gateway in process_packets (0 → the
  /// process-wide SF_BATCH default). Purely a throughput knob: verdicts
  /// and telemetry are byte-identical at any value.
  std::size_t batch = 0;
};

class ShardEngine {
 public:
  explicit ShardEngine(ShardPlan plan);

  const ShardPlan& plan() const { return plan_; }

  /// Re-sizes the worker pool (shard count stays fixed, so results are
  /// unchanged). Used by the scaling bench and operators tuning a host.
  void set_threads(std::size_t threads);

  /// Runs independent tasks on the pool; returns after all finish.
  void run_tasks(std::vector<std::function<void()>> tasks);

  /// Deterministic parallel packet-batch path. Packets are partitioned by
  /// their flow hash modulo the FIXED shard count; each shard then feeds
  /// its packets to the gateway `gateway_for(shard)` returns in whole
  /// bursts (ShardPlan::batch), in ascending input order — one gateway
  /// (and thus one flow cache) per shard, touched only by its owning
  /// worker, so the fast path needs no locks. The 5-tuple hash is computed
  /// exactly once per packet here and threaded into the gateways'
  /// hash-aware process_batch, which derives cache keys and pipe steering
  /// from it. Verdicts land in `out` at the packet's original index;
  /// `out.size()` must equal `packets.size()`. Identical verdict streams
  /// at any thread count and burst size, provided the per-shard gateways
  /// start in identical states.
  void process_packets(std::span<const net::OverlayPacket> packets,
                       double now,
                       const std::function<Gateway&(std::size_t)>& gateway_for,
                       std::span<Verdict> out);

  /// Convenience overload: allocates the verdict vector once up front
  /// (pre-sized, no mid-loop reallocation) and returns it.
  std::vector<Verdict> process_packets(
      std::span<const net::OverlayPacket> packets, double now,
      const std::function<Gateway&(std::size_t)>& gateway_for);

  /// A batch's control-plane update stream, interleaved with forwarding at
  /// *virtual* apply times. `updates` must be ascending by apply_index; an
  /// update with apply_index `a` is visible to exactly the packets with
  /// index > a — a pure property of the stamped stream, never of thread
  /// timing, so interleaved runs stay byte-identical at any thread count.
  ///
  /// `apply(k)` runs on a dedicated mutator thread, once per update in
  /// stream order; it performs the actual table mutation (e.g. publishing
  /// a new table version under RCU). `advance(shard, visible)` runs on the
  /// shard's worker immediately before the first packet that requires the
  /// first `visible` updates to be readable — the callback pins that
  /// shard's gateway to the corresponding table version (e.g.
  /// XgwX86::set_lookup_seq). Readers that reach a version before the
  /// mutator publishes it wait inside their epoch pin; readers behind the
  /// mutator read the *older* version out of the table's history. Either
  /// way the verdict stream is a function of the op stream alone.
  struct UpdatePlan {
    std::span<const TimedTableOp> updates;
    std::function<void(std::size_t k)> apply;
    std::function<void(std::size_t shard, std::size_t visible)> advance;
  };

  /// process_packets with a concurrent, deterministically interleaved
  /// update stream (see UpdatePlan). `advance(shard, 0)` is always issued
  /// before a shard's first packet so every shard starts pinned at the
  /// batch's base version.
  void process_packets(std::span<const net::OverlayPacket> packets,
                       double now,
                       const std::function<Gateway&(std::size_t)>& gateway_for,
                       std::span<Verdict> out, const UpdatePlan& updates);

 private:
  /// Hashes every packet's 5-tuple into `hashes` and returns each shard's
  /// ascending index list (hash modulo the shard count), chunked across
  /// the pool.
  std::vector<std::vector<std::uint32_t>> partition(
      std::span<const net::OverlayPacket> packets,
      std::span<std::uint64_t> hashes);

  ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sf::dataplane

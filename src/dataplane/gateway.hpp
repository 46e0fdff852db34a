// The common packet-processing interface: one packet or a batch.
//
// The indexed batch form is the one batch entry point a gateway
// implements; the sharded engine feeds it, and the contiguous forms call
// it over an identity index list. `std::span` keeps callers free to batch
// from any contiguous storage. The default implementation walks the batch
// through process() in order, so an implementation that does nothing
// special is automatically equivalent to the single-packet path —
// verdicts and telemetry included (the batch equivalence tests hold every
// implementation to that).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/verdict.hpp"

namespace sf::dataplane {

class Gateway {
 public:
  virtual ~Gateway() = default;

  /// Processes one packet. `now` is the simulation clock (seconds), used
  /// by rate limiters and session tables.
  virtual Verdict process(const net::OverlayPacket& packet, double now) = 0;

  /// Batch form: writes packets.size() verdicts into `out` (which must be
  /// at least that large). The default runs process_batch_indexed() over
  /// the identity index list.
  virtual void process_batch(std::span<const net::OverlayPacket> packets,
                             double now, std::span<Verdict> out);

  /// Hash-threaded batch form: `flow_hashes[i]` must equal
  /// `packets[i].inner.hash()`, and the spans must be the same length. The
  /// default runs process_batch_indexed() over the identity index list.
  virtual void process_batch(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             double now, std::span<Verdict> out);

  /// Indexed batch: processes `packets[k]` for each k in `indices` (in
  /// order) and writes `out[k]`. All three parallel spans are BASE arrays
  /// indexed by the same positions — the sharded engine hands each shard
  /// sub-spans of one shared index list, so no per-burst gather/scatter
  /// copies of packets or verdicts ever happen. `flow_hashes[k]` must
  /// equal `packets[k].inner.hash()` for every referenced k — the sharded
  /// engine computes the RSS hash once per packet to pick a shard and
  /// passes it down, so batch-aware gateways derive their flow-cache keys
  /// and pipe steering from it without rehashing. It may be empty for
  /// gateways that do not use it. An index at or past packets.size()
  /// throws std::out_of_range before any state changes. Implementations
  /// must keep verdicts and telemetry identical to looping process(); the
  /// default loops it.
  virtual void process_batch_indexed(
      std::span<const net::OverlayPacket> packets,
      std::span<const std::uint64_t> flow_hashes,
      std::span<const std::uint32_t> indices, double now,
      std::span<Verdict> out);

  /// Allocating convenience wrapper around the span form.
  std::vector<Verdict> process_batch(
      std::span<const net::OverlayPacket> packets, double now = 0);
};

}  // namespace sf::dataplane

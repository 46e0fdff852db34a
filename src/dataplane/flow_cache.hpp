// sf::dataplane::FlowCache — the exact-match fast path in front of a
// gateway's full pipeline walk (DESIGN.md §9).
//
// Real multi-tenant gateways put a flow cache in front of the slow lookup
// chain: the first packet of a flow pays the full multi-stage resolution,
// and the millions that follow replay the cached result. This is the
// simulator's equivalent: an open-addressing, linear-probe table keyed on
// a packed (VNI, 5-tuple) 128-bit digest, storing whatever per-flow
// summary the gateway chooses (XGW-H keeps the flow's outcome path, its
// route-hit count and its rewrite target; XGW-x86 its verdict and rewrite
// target).
//
// Coherence is epoch-based. The cache never invalidates eagerly: every
// control-plane mutation (TableProgrammer ops, DR standby swaps, health
// reroutes) bumps the owner's generations, and entries are stamped with
// the generation they were filled under. The owner passes each packet the
// stamp of what its walk reads (dataplane::ReadSetGenerations: the max of
// a global, a peer-group route and a per-address mapping slot), so a
// mutation moves exactly the stamps of the flows it may affect. A probe that
// lands on a stale generation treats the slot as empty (and reclaims it),
// so a lookup after a mutation that may affect it falls back to the full
// walk — which is exactly what an uncached gateway would compute. That
// makes cache-on vs. cache-off byte-identical by construction, which the
// coherence tests and the CI perf-smoke byte-diff enforce.
//
// Single-writer by design: one cache per gateway, one gateway per shard in
// the parallel interval engine. No locks anywhere.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/headers.hpp"

namespace sf::dataplane {

/// Packed 128-bit exact-match key: two independently seeded digests of
/// (VNI, 5-tuple). A collision needs both 64-bit halves to collide
/// (~2^-64 per flow pair) — below the noise floor of the simulation.
struct FlowKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// Derives the cache key from the flow's 64-bit RSS hash
/// (FiveTuple::hash()). The sharded engine computes that hash once per
/// packet to pick a shard and threads it down through
/// Gateway::process_batch, so the gateways never rehash the tuple; the
/// tuple overload below is the scalar-path convenience that feeds the same
/// derivation. Both halves remix the hash under independent seeds, so a
/// cache collision still needs two 64-bit digests to agree.
FlowKey make_flow_key(std::uint32_t vni, std::uint64_t tuple_hash);
FlowKey make_flow_key(std::uint32_t vni, const net::FiveTuple& tuple);

/// Cache observability. Deliberately a plain struct, not registry
/// counters: registering these would make telemetry snapshots differ
/// between cache-on and cache-off runs, breaking the byte-identity
/// contract.
struct FlowCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t stale_reclaims = 0;
  /// Slots currently holding an entry (any generation; stale slots count
  /// until a probe reclaims them — they still consume table space).
  std::uint64_t occupied = 0;
  /// Highest `occupied` ever reached.
  std::uint64_t high_watermark = 0;
};

/// Default entry count for gateway flow caches: 1 << 12 unless the
/// SF_FLOW_CACHE environment variable overrides it ("0"/"off" disables —
/// the CI byte-diff runs every bench both ways; any other value is an
/// entry count). Read once per process.
std::size_t default_flow_cache_entries();

template <typename Value>
class FlowCache {
 public:
  struct Config {
    /// Slot count; rounded up to a power of two. 0 disables the cache.
    std::size_t entries = 1 << 12;
    /// Linear-probe window. Past it, insert evicts deterministically.
    std::size_t max_probes = 8;
  };

  using Stats = FlowCacheStats;

  FlowCache() : FlowCache(Config{}) {}
  explicit FlowCache(Config config) : config_(config) {
    capacity_ = 1;
    if (config_.entries == 0) {
      capacity_ = 0;
      return;
    }
    while (capacity_ < config_.entries) capacity_ <<= 1;
    mask_ = capacity_ - 1;
    if (config_.max_probes == 0) config_.max_probes = 1;
  }

  bool enabled() const { return capacity_ != 0; }
  /// False until the first insert allocates the table: until then find()
  /// and contains() miss without reading the generation.
  bool allocated() const { return !table_.empty(); }
  std::size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

  /// Hints `key`'s home slot into cache ahead of a find(). No-op while the
  /// table is lazily unallocated.
  void prefetch(const FlowKey& key) const {
    if (!table_.empty()) {
      __builtin_prefetch(table_.data() +
                         (static_cast<std::size_t>(key.hi) & mask_));
    }
  }

  /// Looks up `key`; entries stamped with a different generation are
  /// treated as absent and their slot reclaimed (lazy invalidation).
  /// Returns a pointer into the table, valid until the next insert.
  Value* find(const FlowKey& key, std::uint64_t generation) {
    if (capacity_ == 0 || table_.empty()) {
      ++stats_.misses;
      return nullptr;
    }
    std::size_t slot = static_cast<std::size_t>(key.hi) & mask_;
    for (std::size_t probe = 0; probe < config_.max_probes; ++probe) {
      Entry& entry = table_[slot];
      if (!entry.occupied) break;  // no tombstones: empty ends the window
      if (entry.key == key) {
        if (entry.generation == generation) {
          ++stats_.hits;
          return &entry.value;
        }
        entry.occupied = false;  // stale epoch: reclaim, force a full walk
        ++stats_.stale_reclaims;
        --stats_.occupied;
        break;
      }
      slot = (slot + 1) & mask_;
    }
    ++stats_.misses;
    return nullptr;
  }

  /// Const presence probe: true when `key` holds a live entry for
  /// `generation`. Unlike find(), this never mutates the table or the
  /// stats — stale slots are left for the next find() to reclaim — so
  /// outside observers (the guard's "is this flow established?" check)
  /// can ask without perturbing hit/miss accounting or byte-identity.
  bool contains(const FlowKey& key, std::uint64_t generation) const {
    if (capacity_ == 0 || table_.empty()) return false;
    std::size_t slot = static_cast<std::size_t>(key.hi) & mask_;
    for (std::size_t probe = 0; probe < config_.max_probes; ++probe) {
      const Entry& entry = table_[slot];
      if (!entry.occupied) return false;
      if (entry.key == key) return entry.generation == generation;
      slot = (slot + 1) & mask_;
    }
    return false;
  }

  /// Admission check, called on a miss: a flow earns a cache entry on its
  /// SECOND miss, not its first (microflow promotion). One-packet flows —
  /// the bulk of a realistic mix — then cost a single filter write instead
  /// of an insert. Returns true when the caller should insert this flow
  /// now. Purely key-driven, so behaviour stays deterministic and
  /// cache-on/off byte-identity is unaffected (admission only delays when
  /// an entry appears, never what it replays).
  /// The filter is 2-way set-associative: with one tag per bucket, two
  /// flows sharing a bucket alternate overwriting each other and neither
  /// is ever admitted — a permanent miss. Two ways let a colliding pair
  /// coexist; the empty way is preferred, then a per-key victim.
  bool note_miss(const FlowKey& key) {
    if (capacity_ == 0) return false;
    if (seen_.empty()) seen_.resize(capacity_ * 2);
    const std::size_t bucket =
        (static_cast<std::size_t>(key.hi) & mask_) * 2;
    const std::uint64_t tag = key.lo | 1;  // 0 is the empty sentinel
    if (seen_[bucket] == tag || seen_[bucket + 1] == tag) return true;
    if (seen_[bucket] == 0) {
      seen_[bucket] = tag;
    } else if (seen_[bucket + 1] == 0) {
      seen_[bucket + 1] = tag;
    } else {
      seen_[bucket + ((key.lo >> 1) & 1)] = tag;
    }
    return false;
  }

  /// Inserts (or overwrites) `key`. Prefers the key's own slot, then the
  /// first empty slot in the probe window, else deterministically evicts
  /// the home slot. A slot stamped with another generation is not taken
  /// as stale: owners stamp each entry with the generation of what its
  /// walk read, so that entry may still be live for its own flow.
  void insert(const FlowKey& key, std::uint64_t generation, Value value) {
    if (capacity_ == 0) return;
    if (table_.empty()) table_.resize(capacity_);  // lazy: idle caches cost 0
    const std::size_t home = static_cast<std::size_t>(key.hi) & mask_;
    std::size_t victim = home;
    bool found_empty = false;
    std::size_t slot = home;
    for (std::size_t probe = 0; probe < config_.max_probes; ++probe) {
      Entry& entry = table_[slot];
      if (entry.occupied && entry.key == key) {
        victim = slot;
        break;
      }
      if (!found_empty && !entry.occupied) {
        victim = slot;
        found_empty = true;
        // Keep scanning: an existing slot for `key` still wins.
      }
      slot = (slot + 1) & mask_;
    }
    Entry& entry = table_[victim];
    if (entry.occupied && !(entry.key == key)) ++stats_.evictions;
    if (!entry.occupied) {
      ++stats_.occupied;
      stats_.high_watermark = std::max(stats_.high_watermark, stats_.occupied);
    }
    entry.key = key;
    entry.generation = generation;
    entry.value = std::move(value);
    entry.occupied = true;
    ++stats_.insertions;
  }

  void clear() {
    table_.clear();
    seen_.clear();
    stats_ = Stats{};
  }

 private:
  struct Entry {
    FlowKey key;
    std::uint64_t generation = 0;
    Value value{};
    bool occupied = false;
  };

  Config config_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::vector<Entry> table_;
  std::vector<std::uint64_t> seen_;  // admission filter (key.lo tags)
  Stats stats_;
};

}  // namespace sf::dataplane

// Algorithmic LPM (§4.4 "TCAM conservation for large FIBs", ref. [40]).
//
// The route set lives in SRAM; only a small directory lives in TCAM. Routes
// are partitioned into disjoint subtrees of the combined pooled key space
// (label ‖ VNI ‖ address, tables/tcam.hpp). Each subtree's pivot prefix is
// one row of the first-level TCAM directory; the subtree's routes form a
// bounded SRAM bucket hanging off that row. A lookup longest-matches the
// directory and then scans one bucket.
//
// Two properties make this correct and cheap:
//
//  * Covering routes. A route *shorter* than a pivot can still be the best
//    match for an address that lands in that pivot's bucket. Every bucket
//    therefore carries the longest ancestor route of its pivot as a
//    fallback; insert/erase maintain it.
//
//  * Suffix compression. A bucket's routes share the pivot's leading bits,
//    so only suffix bits are stored per entry — this is what keeps a route
//    to one 128-bit SRAM word and makes ALPM's SRAM bill comparable to an
//    exact-match table of the same size (Fig. 17, step e).
//
// Partitioning carves a subtree as soon as the pending route count reaches
// ceil((max_bucket+1)/2), which bounds every bucket by max_bucket while
// keeping average fill high. The same carve routine serves the bulk build
// and bucket splits on dynamic insert.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "tables/entry.hpp"
#include "tables/masked_key_map.hpp"
#include "tables/tcam.hpp"

namespace sf::tables {

/// Analytic model of Alpm<...>::Stats for capacity planning without
/// building the trie.
struct AlpmShapeEstimate {
  std::size_t partitions = 0;
  std::size_t directory_slices = 0;
  std::size_t bucket_words = 0;  // reserved SRAM words (partitions x bound)
};

/// Expected bucket fill (routes / reserved slots) for a given bucket
/// bound, calibrated against Alpm::stats() on the paper's Zipf route
/// workload (60k VPCs, 75/25 v4/v6) from 1M to 10M routes.
double expected_alpm_fill(std::size_t max_bucket_entries);

/// Calibrated shape estimate: tracks Alpm::stats() within 5% from 1M to
/// 10M routes at the default bucket bound (regression-pinned).
/// `slices_per_directory_entry` and `words_per_route` carry the chip's
/// cost model (pooled-key directory rows, one-word routes on SfChip).
AlpmShapeEstimate estimate_alpm_shape(std::size_t routes,
                                      std::size_t max_bucket_entries,
                                      unsigned slices_per_directory_entry,
                                      unsigned words_per_route);

template <typename Value>
class Alpm {
 public:
  struct Config {
    /// Hard bucket bound (hardware reserves this many slots per row).
    std::size_t max_bucket_entries = 64;
    /// TCAM slice width of the directory rows.
    unsigned directory_slice_bits = 44;
    /// Action bits per route, for the SRAM cost model.
    unsigned action_bits = kVxlanRouteActionBits;
  };

  struct Stats {
    std::size_t routes = 0;
    std::size_t partitions = 0;
    std::size_t directory_slices = 0;
    std::size_t allocated_bucket_words = 0;  // reserved SRAM (128-bit words)
    std::size_t used_bucket_words = 0;       // words actually holding routes
    double average_fill = 0.0;               // routes / reserved slots
  };

  explicit Alpm(Config config = {}) : config_(config) {
    if (config_.max_bucket_entries == 0) {
      throw std::invalid_argument("Alpm bucket bound must be positive");
    }
    // The always-present root partition catches addresses under no pivot.
    partitions_.push_back(Partition{TcamKey{}, 0, {}, true});
    directory_.insert(TcamKey{}, 0, 0);
  }

  /// Inserts or replaces a route. Splits the target bucket when full.
  bool insert(net::Vni vni, const net::IpPrefix& prefix, Value value) {
    Route route = make_route(vni, prefix, std::move(value));
    const bool is_new = routes_.insert(route.key, route.depth, route.value);
    std::uint32_t pi = locate_partition(route.key, route.depth);
    Partition& part = partitions_[pi];
    if (!is_new) {
      for (Route& existing : part.routes) {
        if (existing.key == route.key && existing.depth == route.depth) {
          existing.value = route.value;
          break;
        }
      }
    } else {
      // Keep the bucket grouped by head25 (see lookup_resolve): insert at
      // the end of the route's head25 run. Splits re-sort by full key,
      // which is a refinement of head25 order, so the invariant survives
      // every mutation path.
      auto pos = std::upper_bound(
          part.routes.begin(), part.routes.end(), route.head25,
          [](std::uint32_t h, const Route& r) { return h < r.head25; });
      part.routes.insert(pos, route);
      if (part.routes.size() > config_.max_bucket_entries) {
        split_partition(pi);
      }
    }
    return is_new;
  }

  /// Removes a route. Returns false when absent.
  bool erase(net::Vni vni, const net::IpPrefix& prefix) {
    Route route = make_route(vni, prefix, Value{});
    if (!routes_.erase(route.key, route.depth)) return false;
    std::uint32_t pi = locate_partition(route.key, route.depth);
    Partition& part = partitions_[pi];
    std::erase_if(part.routes, [&](const Route& r) {
      return r.key == route.key && r.depth == route.depth;
    });
    if (part.routes.empty() && part.depth > 0) retire_partition(pi);
    return true;
  }

  /// Longest-prefix match: one directory match plus one bucket scan.
  std::optional<Value> lookup(net::Vni vni, const net::IpAddr& ip) const {
    const TcamKey key = make_pooled_key(vni, ip);
    return lookup_resolve(key, lookup_prepare(key));
  }

  /// Two-phase lookup for software-pipelined batch callers: prepare() does
  /// the TCAM directory match and issues a prefetch for the SRAM bucket;
  /// resolve() scans it. Hashing/prefetching N keys before resolving any
  /// hides the bucket's DRAM latency behind the other N-1 directory
  /// probes. lookup() above is exactly prepare+resolve back to back.
  std::uint32_t lookup_prepare(const TcamKey& key) const {
    auto dir = directory_.longest_match(key);
    // The root row makes a directory miss impossible; keep the fallback
    // anyway (partition 0 is the root).
    const std::uint32_t pi = dir ? dir->first : 0;
    __builtin_prefetch(partitions_[pi].routes.data());
    return pi;
  }

  /// Batched prepare: one depth-major directory sweep over the whole
  /// burst (MaskedKeyMap::longest_match_batch hashes and prefetches every
  /// key's slot per depth before resolving any), then the per-partition
  /// bucket prefetch. parts[i] is exactly lookup_prepare(keys[i]).
  void lookup_prepare_batch(std::span<const TcamKey> keys,
                            std::span<std::uint32_t> parts) const {
    constexpr std::size_t kChunk = 128;
    std::uint8_t hit[kChunk];
    std::uint32_t value[kChunk];
    unsigned depth[kChunk];
    for (std::size_t base = 0; base < keys.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, keys.size() - base);
      directory_.longest_match_batch(keys.subspan(base, n), {hit, n},
                                     {value, n}, {depth, n});
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t pi = hit[i] ? value[i] : 0;
        parts[base + i] = pi;
        __builtin_prefetch(partitions_[pi].routes.data());
      }
    }
  }

  std::optional<Value> lookup_resolve(const TcamKey& key,
                                      std::uint32_t partition) const {
    const Partition& part = partitions_[partition];
    // Every route's depth covers the full label‖VNI header (>= 25 bits),
    // so a route whose leading 25 key bits differ from the lookup key's
    // cannot match. Buckets stay grouped by head25 (insert/split maintain
    // it), so one binary search lands on this tenant's run and the scan
    // touches only routes that share the label‖VNI header — other
    // tenants' routes in the bucket cost nothing.
    const std::uint32_t head25 = static_cast<std::uint32_t>(key.w[0] >> 39);
    const Route* best = nullptr;
    auto it = std::lower_bound(
        part.routes.begin(), part.routes.end(), head25,
        [](const Route& r, std::uint32_t h) { return r.head25 < h; });
    for (; it != part.routes.end() && it->head25 == head25; ++it) {
      const Route& route = *it;
      if ((best == nullptr || route.depth > best->depth) &&
          key.masked(route.mask) == route.key) {
        best = &route;
      }
    }
    if (best != nullptr) return best->value;
    // Bucket miss: fall back to the covering route — the longest route
    // shorter than the pivot. A hardware bucket materializes this route in
    // a reserved slot; the model resolves it from the authoritative store,
    // which yields the identical value (ancestors of the pivot contain the
    // whole region, hence the address). tests/tables asserts equivalence.
    auto covering = routes_.longest_match(key, part.depth);
    if (covering) return covering->first;
    return std::nullopt;
  }

  /// Exact-prefix fetch from the authoritative store (not longest match).
  const Value* find(net::Vni vni, const net::IpPrefix& prefix) const {
    auto [key, mask] = make_pooled_prefix(vni, prefix);
    (void)mask;
    return routes_.find(key, 1 + 24 + prefix.pooled_length());
  }

  std::size_t size() const { return routes_.size(); }

  Stats stats() const {
    Stats s;
    s.routes = routes_.size();
    const unsigned dir_slices =
        (kPooledRouteKeyBits + config_.directory_slice_bits - 1) /
        config_.directory_slice_bits;
    for (const Partition& part : partitions_) {
      if (!part.in_use) continue;
      ++s.partitions;
      s.directory_slices += dir_slices;
      std::size_t max_words = 1;
      for (const Route& route : part.routes) {
        std::size_t words = route_words(route, part.depth);
        s.used_bucket_words += words;
        max_words = std::max(max_words, words);
      }
      // The covering route occupies one reserved slot in the bucket.
      if (compute_covering(part.pivot, part.depth)) {
        s.used_bucket_words += 1;
      }
      s.allocated_bucket_words += config_.max_bucket_entries * max_words;
    }
    if (s.partitions > 0) {
      s.average_fill =
          static_cast<double>(s.routes) /
          static_cast<double>(s.partitions * config_.max_bucket_entries);
    }
    return s;
  }

  const Config& config() const { return config_; }

 private:
  struct Route {
    TcamKey key;        // canonical: masked to depth
    unsigned depth = 0; // 25 + pooled prefix length
    /// Leading 25 key bits (label ‖ VNI) — the bucket scan's cheap
    /// reject. Valid because depth >= 25 always.
    std::uint32_t head25 = 0;
    /// tcam_mask(depth), cached at build time.
    TcamKey mask;
    Value value{};
  };

  struct Partition {
    TcamKey pivot;
    unsigned depth = 0;
    std::vector<Route> routes;
    bool in_use = false;
  };

  static Route make_route(net::Vni vni, const net::IpPrefix& prefix,
                          Value value) {
    auto [key, mask] = make_pooled_prefix(vni, prefix);
    (void)mask;
    const unsigned depth = 1 + 24 + prefix.pooled_length();
    return Route{key, depth, static_cast<std::uint32_t>(key.w[0] >> 39),
                 tcam_mask(depth), std::move(value)};
  }

  std::size_t route_words(const Route& route, unsigned pivot_depth) const {
    // Stored suffix in *native* key space: a v4 route's pooled key carries
    // 96 known-zero bits nothing needs to store, so its suffix is at most
    // 32 bits regardless of pivot depth (label bit 0 = v4-pooled).
    const bool v4 = !tcam_bit(route.key, 0);
    const unsigned native_start = 1 + 24 + (v4 ? 96u : 0u);
    const unsigned effective_pivot = std::max(pivot_depth, native_start);
    const unsigned suffix_bits =
        route.depth - std::min(route.depth, effective_pivot);
    const unsigned bits = suffix_bits + 8 /* stored length */ +
                          config_.action_bits;
    return (bits + 127) / 128;
  }

  /// The partition a route of `depth` belongs to: deepest pivot containing
  /// it. The root row guarantees a hit.
  std::uint32_t locate_partition(const TcamKey& key, unsigned depth) const {
    auto dir = directory_.longest_match(key, depth + 1);
    assert(dir.has_value());
    return dir->first;
  }

  std::uint32_t allocate_partition(const TcamKey& pivot, unsigned depth) {
    std::uint32_t index;
    if (!free_list_.empty()) {
      index = free_list_.back();
      free_list_.pop_back();
    } else {
      partitions_.emplace_back();
      index = static_cast<std::uint32_t>(partitions_.size() - 1);
    }
    Partition& part = partitions_[index];
    part.pivot = pivot;
    part.depth = depth;
    part.routes.clear();
    part.in_use = true;
    directory_.insert(pivot, depth, index);
    return index;
  }

  void retire_partition(std::uint32_t index) {
    Partition& part = partitions_[index];
    directory_.erase(part.pivot, part.depth);
    part.in_use = false;
    part.routes.clear();
    free_list_.push_back(index);
  }

  /// Longest route strictly shorter than `depth` covering `pivot`.
  std::optional<Route> compute_covering(const TcamKey& pivot,
                                        unsigned depth) const {
    auto hit = routes_.longest_match(pivot, depth);
    if (!hit) return std::nullopt;
    const TcamKey mask = tcam_mask(hit->second);
    const TcamKey key = pivot.masked(mask);
    return Route{key, hit->second,
                 static_cast<std::uint32_t>(key.w[0] >> 39), mask,
                 hit->first};
  }

  /// Splits an overflowing partition by carving its routes into subtrees.
  void split_partition(std::uint32_t index) {
    // Move the routes out; the original partition keeps the carve leftover.
    std::vector<Route> routes = std::move(partitions_[index].routes);
    partitions_[index].routes.clear();
    sort_routes(routes);

    std::vector<Emitted> emitted;
    std::vector<Route> leftover =
        carve(std::span<Route>(routes), partitions_[index].depth,
              partitions_[index].pivot, partitions_[index].depth, &emitted);
    partitions_[index].routes = std::move(leftover);
    for (Emitted& sub : emitted) {
      std::uint32_t child = allocate_partition(sub.pivot, sub.depth);
      partitions_[child].routes = std::move(sub.routes);
    }
  }

  struct Emitted {
    TcamKey pivot;
    unsigned depth = 0;
    std::vector<Route> routes;
  };

  static void sort_routes(std::vector<Route>& routes) {
    std::sort(routes.begin(), routes.end(),
              [](const Route& a, const Route& b) {
                if (a.key.w != b.key.w) return a.key.w < b.key.w;
                return a.depth < b.depth;
              });
  }

  std::size_t carve_threshold() const {
    return (config_.max_bucket_entries + 1) / 2;
  }

  /// Post-order subtree carve. `span` is sorted by (key, depth) and every
  /// route in it is inside the region (node_key, depth). Emits partitions
  /// for subtrees whose pending count reaches the threshold; returns the
  /// routes left for the caller's region. No partition is emitted at
  /// region_depth itself — the caller owns that pivot already.
  std::vector<Route> carve(std::span<Route> span, unsigned depth,
                           const TcamKey& node_key, unsigned region_depth,
                           std::vector<Emitted>* out) {
    if (span.size() < carve_threshold() || depth >= kPooledRouteKeyBits) {
      return {span.begin(), span.end()};
    }
    // Routes exactly at this node come first (canonical keys equal the
    // region key; shallower depth sorts first).
    auto exact_end = std::partition_point(
        span.begin(), span.end(),
        [&](const Route& r) { return r.depth == depth; });
    auto one_begin = std::partition_point(
        exact_end, span.end(),
        [&](const Route& r) { return !tcam_bit(r.key, depth); });

    std::vector<Route> pending(span.begin(), exact_end);
    std::vector<Route> left = carve(std::span<Route>(exact_end, one_begin),
                                    depth + 1, node_key, region_depth, out);
    std::vector<Route> right =
        carve(std::span<Route>(one_begin, span.end()), depth + 1,
              tcam_set_bit(node_key, depth), region_depth, out);
    pending.insert(pending.end(), left.begin(), left.end());
    pending.insert(pending.end(), right.begin(), right.end());

    if (pending.size() >= carve_threshold() && depth > region_depth) {
      out->push_back(Emitted{node_key, depth, std::move(pending)});
      return {};
    }
    return pending;
  }

  Config config_;
  MaskedKeyMap<Value> routes_;          // authoritative full route set
  MaskedKeyMap<std::uint32_t> directory_;  // pivot -> partition index
  std::vector<Partition> partitions_;
  std::vector<std::uint32_t> free_list_;
};

}  // namespace sf::tables

// Hash-probe longest-prefix-match directory over 192-bit masked keys.
//
// Stores (key, depth) -> Value where depth is a prefix length in the
// combined key space (see tables/tcam.hpp for the pooled layout). A
// longest-match probes the distinct depths present, longest first, with one
// hash lookup each — the classic DRAM LPM of a software router, and the
// structure ALPM keeps its route set and pivot directory in. Distinct
// depths are few in practice (tenant route plans reuse a handful of
// prefix lengths), so lookups cost a handful of hash probes.
//
// The store is a flat open-addressing table (linear probing, tombstone
// deletes) rather than a node-based map: every probe is one predictable
// array access, which lets longest_match_batch() software-pipeline a whole
// burst — hash and prefetch every key's slot for one depth, then resolve
// them all — instead of chasing two dependent cache misses per probe per
// packet. The serial longest_match() walks the same layout.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/hash.hpp"
#include "tables/tcam.hpp"

namespace sf::tables {

template <typename Value>
class MaskedKeyMap {
 public:
  MaskedKeyMap() { rehash(kMinSlots); }

  /// Inserts or replaces. Returns true when new.
  bool insert(const TcamKey& key, unsigned depth, Value value) {
    const TcamKey canon = key.masked(tcam_mask(depth));
    const std::uint64_t h = hash_of(canon, depth);
    std::size_t tomb = kNoSlot;
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.state == kEmpty) {
        Slot& target = tomb != kNoSlot ? slots_[tomb] : slot;
        if (tomb != kNoSlot) --tombstones_;
        target.state = kFull;
        target.hash = h;
        target.key = canon;
        target.depth = depth;
        target.value = std::move(value);
        ++size_;
        add_depth(depth);
        maybe_grow();
        return true;
      }
      if (slot.state == kTombstone) {
        if (tomb == kNoSlot) tomb = i;
        continue;
      }
      if (slot.hash == h && slot.depth == depth && slot.key == canon) {
        slot.value = std::move(value);
        return false;
      }
    }
  }

  bool erase(const TcamKey& key, unsigned depth) {
    const TcamKey canon = key.masked(tcam_mask(depth));
    const std::uint64_t h = hash_of(canon, depth);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.state == kEmpty) return false;
      if (slot.state == kFull && slot.hash == h && slot.depth == depth &&
          slot.key == canon) {
        slot.state = kTombstone;
        slot.value = Value{};
        --size_;
        ++tombstones_;
        remove_depth(depth);
        return true;
      }
    }
  }

  const Value* find(const TcamKey& key, unsigned depth) const {
    const TcamKey canon = key.masked(tcam_mask(depth));
    return probe(canon, depth, hash_of(canon, depth));
  }

  /// Longest match with depth < below (exclusive). Pass below > max key
  /// width (e.g. 256) for an unrestricted longest match.
  std::optional<std::pair<Value, unsigned>> longest_match(
      const TcamKey& key, unsigned below = 256) const {
    for (auto it = depths_.rbegin(); it != depths_.rend(); ++it) {
      if (it->depth >= below) continue;
      const TcamKey canon = key.masked(it->mask);
      const Value* hit = probe(canon, it->depth, hash_of(canon, it->depth));
      if (hit != nullptr) return {{*hit, it->depth}};
    }
    return std::nullopt;
  }

  /// Batched longest match: fills hit[i] (1 = matched), value[i] and
  /// depth_out[i] for every key. Works depth-major over the burst —
  /// deepest first, hash + prefetch every still-unresolved key's slot,
  /// then resolve them all — so the slot fetches of the whole burst
  /// overlap instead of serializing per key. Results are exactly what
  /// longest_match() returns per key. Chunked on stack scratch, so it is
  /// as thread-safe as the serial reader path.
  void longest_match_batch(std::span<const TcamKey> keys,
                           std::span<std::uint8_t> hit,
                           std::span<Value> value,
                           std::span<unsigned> depth_out) const {
    constexpr std::size_t kChunk = 128;
    for (std::size_t base = 0; base < keys.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, keys.size() - base);
      std::uint32_t live[kChunk];
      std::uint32_t next[kChunk];
      std::uint64_t h[kChunk];
      TcamKey canon[kChunk];
      std::size_t live_n = n;
      for (std::size_t i = 0; i < n; ++i) {
        live[i] = static_cast<std::uint32_t>(i);
        hit[base + i] = 0;
      }
      for (auto it = depths_.rbegin(); it != depths_.rend() && live_n != 0;
           ++it) {
        for (std::size_t j = 0; j < live_n; ++j) {
          const std::uint32_t i = live[j];
          canon[i] = keys[base + i].masked(it->mask);
          h[i] = hash_of(canon[i], it->depth);
          __builtin_prefetch(&slots_[h[i] & mask_]);
        }
        std::size_t next_n = 0;
        for (std::size_t j = 0; j < live_n; ++j) {
          const std::uint32_t i = live[j];
          const Value* v = probe(canon[i], it->depth, h[i]);
          if (v != nullptr) {
            hit[base + i] = 1;
            value[base + i] = *v;
            depth_out[base + i] = it->depth;
          } else {
            next[next_n++] = i;
          }
        }
        std::copy(next, next + next_n, live);
        live_n = next_n;
      }
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void for_each(const std::function<void(const TcamKey&, unsigned,
                                         const Value&)>& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.state == kFull) visit(slot.key, slot.depth, slot.value);
    }
  }

  void clear() {
    slots_.clear();
    size_ = 0;
    tombstones_ = 0;
    depths_.clear();
    rehash(kMinSlots);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTombstone = 2;

  struct Slot {
    std::uint64_t hash = 0;
    TcamKey key;
    unsigned depth = 0;
    std::uint8_t state = kEmpty;
    Value value{};
  };

  static std::uint64_t hash_of(const TcamKey& canon, unsigned depth) {
    return net::hash_combine(tcam_hash(canon), net::mix64(depth));
  }

  const Value* probe(const TcamKey& canon, unsigned depth,
                     std::uint64_t h) const {
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.state == kEmpty) return nullptr;
      if (slot.state == kFull && slot.hash == h && slot.depth == depth &&
          slot.key == canon) {
        return &slot.value;
      }
    }
  }

  void maybe_grow() {
    // Keep full+tombstone occupancy under half so probe runs stay short.
    if ((size_ + tombstones_) * 2 >= slots_.size()) {
      rehash(std::max(kMinSlots, slots_.size() * 2));
    }
  }

  void rehash(std::size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    mask_ = new_slots - 1;
    tombstones_ = 0;
    for (Slot& slot : old) {
      if (slot.state != kFull) continue;
      for (std::size_t i = slot.hash & mask_;; i = (i + 1) & mask_) {
        if (slots_[i].state == kEmpty) {
          slots_[i] = std::move(slot);
          break;
        }
      }
    }
  }

  /// One distinct depth present in the map. The mask is precomputed: a
  /// longest_match probes every depth, and rebuilding a 192-bit mask per
  /// probe is a measurable slice of every route lookup.
  struct DepthEntry {
    unsigned depth = 0;
    std::size_t refs = 0;
    TcamKey mask;
  };

  void add_depth(unsigned depth) {
    auto it = std::lower_bound(
        depths_.begin(), depths_.end(), depth,
        [](const DepthEntry& entry, unsigned d) { return entry.depth < d; });
    if (it != depths_.end() && it->depth == depth) {
      ++it->refs;
    } else {
      depths_.insert(it, DepthEntry{depth, 1, tcam_mask(depth)});
    }
  }

  void remove_depth(unsigned depth) {
    auto it = std::lower_bound(
        depths_.begin(), depths_.end(), depth,
        [](const DepthEntry& entry, unsigned d) { return entry.depth < d; });
    if (it != depths_.end() && it->depth == depth && --it->refs == 0) {
      depths_.erase(it);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  /// Sorted by depth, one entry per distinct depth present.
  std::vector<DepthEntry> depths_;
};

}  // namespace sf::tables

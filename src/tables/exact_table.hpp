// N-way set-associative exact-match table.
//
// This models how switch SRAM hash tables behave: a configured number of
// buckets, each with a small number of ways. Insertion fails when every
// way of the target bucket is occupied — real hardware tables overflow on
// hash collisions well before 100% fill, which is why provisioning
// headroom (and the paper's careful occupancy accounting) matters.
//
// Host layout: the slots live in one cache-line-aligned array, bucket after
// bucket, each slot laid out {key, value, occupied}. For the pooled VM-NC
// instantiation (<uint64_t, VmNcAction>) a slot is 16 B, so a 4-way bucket
// is exactly one 64 B line and prefetch() brings in the whole bucket.
//
// Host memory follows the entries, not the modeled capacity: the array
// starts at kInitialBuckets buckets and doubles when an insert finds its
// bucket full, up to the configured count (capacity() always reports the
// configured slots). Buckets are `hash & mask` with power-of-two sizes, so
// a bucket of a smaller array holds every key of the configured-size
// bucket it covers: a bucket full at the configured size is full at every
// smaller size, and a smaller array only grows, never fails, until it
// reaches the configured size. The live set and every insert's success or
// failure are therefore those of a fixed array of the configured size;
// only the slot (and so for_each) order can differ.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "net/hash.hpp"

namespace sf::tables {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Hands out cache-line-aligned storage, so a bucket whose size is a
/// multiple of the line never straddles two lines.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kCacheLineBytes});
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

template <typename Key, typename Value, typename Hasher = std::hash<Key>>
class ExactTable {
 public:
  struct Config {
    /// Number of buckets; rounded up to a power of two.
    std::size_t buckets = 1024;
    /// Ways (slots) per bucket.
    unsigned ways = 4;
  };

  struct Stats {
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::size_t insert_failures = 0;
  };

  /// Buckets of the first host array (fewer when the table is configured
  /// smaller): one 4 KiB page of the pooled VM-NC table's 64 B buckets.
  static constexpr std::size_t kInitialBuckets = 64;

  explicit ExactTable(Config config, Hasher hasher = {})
      : hasher_(std::move(hasher)) {
    if (config.buckets == 0 || config.ways == 0) {
      throw std::invalid_argument("ExactTable needs buckets and ways > 0");
    }
    std::size_t buckets = 1;
    while (buckets < config.buckets) buckets <<= 1;
    max_buckets_ = buckets;
    ways_ = config.ways;
    replace_slots(std::min(buckets, kInitialBuckets));
  }

  /// Inserts or replaces. Returns false (and counts a failure) when the
  /// target bucket has no free way at the configured bucket count.
  bool insert(const Key& key, Value value) {
    const std::uint64_t hash = hasher_(key);
    for (;;) {
      Slot* free_slot = nullptr;
      for (Slot& slot : bucket_at(hash)) {
        if (slot.occupied && slot.key == key) {
          slot.value = std::move(value);
          return true;
        }
        if (!slot.occupied && free_slot == nullptr) free_slot = &slot;
      }
      if (free_slot != nullptr) {
        free_slot->occupied = true;
        free_slot->key = key;
        free_slot->value = std::move(value);
        ++size_;
        return true;
      }
      if (bucket_mask_ + 1 == max_buckets_) {
        ++insert_failures_;
        return false;
      }
      grow();
    }
  }

  std::optional<Value> lookup(const Key& key) const {
    for (const Slot& slot : bucket(key)) {
      if (slot.occupied && slot.key == key) return slot.value;
    }
    return std::nullopt;
  }

  /// Hints the bucket `key` hashes to into cache. Batch callers prefetch N
  /// buckets, then resolve N lookups, hiding the SRAM/DRAM miss of each
  /// bucket behind the hashing of the others.
  void prefetch(const Key& key) const {
    __builtin_prefetch(bucket_at(hasher_(key)).data());
  }

  bool contains(const Key& key) const { return lookup(key).has_value(); }

  bool erase(const Key& key) {
    for (Slot& slot : bucket(key)) {
      if (slot.occupied && slot.key == key) {
        slot.occupied = false;
        slot.value = Value{};
        --size_;
        return true;
      }
    }
    return false;
  }

  std::size_t size() const { return size_; }
  /// Modeled slots: the configured buckets x ways, however few the host
  /// array holds so far.
  std::size_t capacity() const { return max_buckets_ * ways_; }

  Stats stats() const { return Stats{size_, capacity(), insert_failures_}; }

  /// Slots the host array holds so far: at most kInitialBuckets x ways at
  /// construction, doubling as entries arrive, never more than capacity().
  std::size_t host_slots() const { return slots_.size(); }

  /// Host bytes of one slot; a bucket spans `ways * slot_bytes()`.
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }
  /// Start of the slot array (cache-line aligned).
  const void* slot_data() const { return slots_.data(); }

  /// Visits all occupied slots, in the host array's slot order.
  void for_each(const std::function<void(const Key&, const Value&)>& visit)
      const {
    for (const Slot& slot : slots_) {
      if (slot.occupied) visit(slot.key, slot.value);
    }
  }

  void clear() {
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

 private:
  // The flag goes last: ahead of an 8-byte key it would cost a whole
  // padded word, behind the value it fills the value's tail padding.
  struct Slot {
    Key key{};
    Value value{};
    bool occupied = false;
  };

  using SlotArray = std::vector<Slot, CacheLineAllocator<Slot>>;

  std::span<Slot> bucket_at(std::uint64_t hash) {
    return {slots_.data() + (hash & bucket_mask_) * ways_, ways_};
  }
  std::span<const Slot> bucket_at(std::uint64_t hash) const {
    return {slots_.data() + (hash & bucket_mask_) * ways_, ways_};
  }
  std::span<Slot> bucket(const Key& key) { return bucket_at(hasher_(key)); }
  std::span<const Slot> bucket(const Key& key) const {
    return bucket_at(hasher_(key));
  }

  /// Installs an empty array of `buckets` buckets; returns the old one.
  SlotArray replace_slots(std::size_t buckets) {
    const std::size_t total = buckets * ways_;
    SlotArray slots;
    slots.reserve(total);
#if defined(__linux__)
    // Large tables are probed at random bucket offsets, so with 4 KiB pages
    // nearly every lookup eats a dTLB miss on top of the cache miss. Ask the
    // kernel to back the slot array with huge pages before resize() faults
    // the pages in (a no-op where THP is unavailable); the interior-aligned
    // range keeps madvise happy with the vector's arbitrary base address.
    constexpr std::size_t kHugePage = 2u << 20;
    const std::size_t bytes = total * sizeof(Slot);
    if (bytes >= 2 * kHugePage) {
      auto base = reinterpret_cast<std::uintptr_t>(slots.data());
      const std::uintptr_t lo = (base + kHugePage - 1) & ~(kHugePage - 1);
      const std::uintptr_t hi = (base + bytes) & ~(kHugePage - 1);
      if (hi > lo) {
        ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
      }
    }
#endif
    slots.resize(total);
    slots.swap(slots_);
    bucket_mask_ = buckets - 1;
    return slots;
  }

  /// Doubles the host array. Each bucket splits into two whose keys it
  /// held, so every live entry, re-homed in slot order, finds a free way.
  void grow() {
    for (Slot& slot : replace_slots(2 * (bucket_mask_ + 1))) {
      if (!slot.occupied) continue;
      for (Slot& to : bucket(slot.key)) {
        if (!to.occupied) {
          to = std::move(slot);
          break;
        }
      }
    }
  }

  Hasher hasher_;
  std::size_t bucket_mask_ = 0;
  std::size_t max_buckets_ = 0;
  unsigned ways_ = 0;
  SlotArray slots_;
  std::size_t size_ = 0;
  std::size_t insert_failures_ = 0;
};

}  // namespace sf::tables

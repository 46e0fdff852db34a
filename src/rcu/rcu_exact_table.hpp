// Versioned exact-match table with single-writer RCU semantics.
//
// Every mutation creates a new node stamped `born = seq` and marks the
// predecessor `dead = seq`; versions of one key occupy disjoint
// [born, dead) windows, so a reader pinned at seq s sees exactly one of
// them — the table state as of s — regardless of how far ahead the
// mutator has raced. Buckets are fixed at construction (no concurrent
// rehash); chains carry live and not-yet-reclaimed dead versions side by
// side. Reclamation is two-phase via `collect()`: unlink under the
// visibility floor, free after the reclamation era's grace period
// (rcu/epoch.hpp explains why the phases compose safely).
//
// Thread contract: one mutator thread owns insert/erase/collect/for_each;
// any number of reader threads call lookup() while holding an
// EpochManager pin.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "rcu/epoch.hpp"
#include "rcu/node_pool.hpp"

namespace sf::rcu {

template <typename Key, typename Value, typename Hasher = std::hash<Key>>
class RcuExactTable {
 public:
  static constexpr std::uint64_t kNeverDies =
      std::numeric_limits<std::uint64_t>::max();

  explicit RcuExactTable(std::size_t bucket_hint = 1024)
      : buckets_(round_up_pow2(bucket_hint)), mask_(buckets_.size() - 1) {}

  // ---- mutator side -------------------------------------------------

  /// Inserts or replaces the value for `key`, visible from version `seq`.
  /// Returns true when no live predecessor existed.
  bool insert(const Key& key, Value value, std::uint64_t seq) {
    std::atomic<Node*>& head = bucket(key);
    Node* prior = find_live(head, key);
    if (prior != nullptr) {
      prior->dead.store(seq, std::memory_order_release);
    } else {
      live_.fetch_add(1, std::memory_order_relaxed);
    }
    Node* node = pool_.allocate();
    node->key = key;
    node->value = std::move(value);
    node->born = seq;
    node->dead.store(kNeverDies, std::memory_order_relaxed);
    node->next.store(head.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    head.store(node, std::memory_order_release);
    return prior == nullptr;
  }

  /// Removes the live value for `key` from version `seq` on. Returns
  /// false when no live entry existed.
  bool erase(const Key& key, std::uint64_t seq) {
    Node* prior = find_live(bucket(key), key);
    if (prior == nullptr) return false;
    prior->dead.store(seq, std::memory_order_release);
    live_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Mutator-side sweep over live entries at the latest version.
  void for_each_live(
      const std::function<void(const Key&, const Value&)>& visit) const {
    for (const std::atomic<Node*>& head : buckets_) {
      for (const Node* node = head.load(std::memory_order_relaxed);
           node != nullptr;
           node = node->next.load(std::memory_order_relaxed)) {
        if (node->dead.load(std::memory_order_relaxed) == kNeverDies) {
          visit(node->key, node->value);
        }
      }
    }
  }

  /// Live entries at the latest version.
  std::size_t live_size() const {
    return live_.load(std::memory_order_relaxed);
  }

  /// Reclaims dead versions: unlinks every node no pinned reader can see
  /// — given the caller's promise that no future pin will be below
  /// `keep_from` — then frees limbo batches whose grace period elapsed.
  void collect(std::uint64_t keep_from, EpochManager& epoch) {
    epoch.note_collect_floor(keep_from);
    const std::uint64_t floor =
        std::min(keep_from, epoch.min_pinned(keep_from));
    std::vector<Node*> batch;
    for (std::atomic<Node*>& head : buckets_) {
      Node* prev = nullptr;
      Node* node = head.load(std::memory_order_relaxed);
      while (node != nullptr) {
        Node* next = node->next.load(std::memory_order_relaxed);
        const std::uint64_t dead = node->dead.load(std::memory_order_relaxed);
        if (dead != kNeverDies && dead <= floor) {
          if (prev != nullptr) {
            prev->next.store(next, std::memory_order_release);
          } else {
            head.store(next, std::memory_order_release);
          }
          batch.push_back(node);
        } else {
          prev = node;
        }
        node = next;
      }
    }
    if (!batch.empty()) {
      limbo_.push_back(Limbo{epoch.advance_era(), std::move(batch)});
    }
    const std::uint64_t safe_era =
        epoch.min_announced_era(std::numeric_limits<std::uint64_t>::max());
    while (!limbo_.empty() && limbo_.front().retire_era <= safe_era) {
      for (Node* node : limbo_.front().nodes) pool_.release(node);
      limbo_.pop_front();
    }
  }

  /// Nodes unlinked but awaiting their grace period.
  std::size_t limbo_size() const {
    std::size_t total = 0;
    for (const Limbo& batch : limbo_) total += batch.nodes.size();
    return total;
  }

  /// Nodes held by the table (live + dead-but-linked + limbo).
  std::size_t outstanding_nodes() const { return pool_.outstanding(); }

  // ---- reader side --------------------------------------------------

  /// Looks up `key` as of version `seq`. The caller must hold an
  /// EpochManager pin at `seq` (or at any seq ≤ the one passed here that
  /// it promised via `collect`'s keep_from). The returned pointer is
  /// valid until the pin is released.
  const Value* lookup(const Key& key, std::uint64_t seq) const {
    for (const Node* node = bucket(key).load(std::memory_order_acquire);
         node != nullptr; node = node->next.load(std::memory_order_acquire)) {
      if (node->key == key && node->born <= seq &&
          seq < node->dead.load(std::memory_order_acquire)) {
        return &node->value;
      }
    }
    return nullptr;
  }

 private:
  struct Node {
    Key key{};
    Value value{};
    std::uint64_t born = 0;
    std::atomic<std::uint64_t> dead{kNeverDies};
    std::atomic<Node*> next{nullptr};
  };

  struct Limbo {
    std::uint64_t retire_era = 0;
    std::vector<Node*> nodes;
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::atomic<Node*>& bucket(const Key& key) {
    return buckets_[Hasher{}(key) & mask_];
  }
  const std::atomic<Node*>& bucket(const Key& key) const {
    return buckets_[Hasher{}(key) & mask_];
  }

  static Node* find_live(const std::atomic<Node*>& head, const Key& key) {
    for (Node* node = head.load(std::memory_order_relaxed); node != nullptr;
         node = node->next.load(std::memory_order_relaxed)) {
      if (node->key == key &&
          node->dead.load(std::memory_order_relaxed) == kNeverDies) {
        return node;
      }
    }
    return nullptr;
  }

  std::vector<std::atomic<Node*>> buckets_;
  std::size_t mask_;
  NodePool<Node> pool_;
  std::deque<Limbo> limbo_;
  std::atomic<std::size_t> live_{0};
};

}  // namespace sf::rcu

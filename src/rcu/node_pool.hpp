// Bulk node allocator for RCU tables.
//
// Versioned tables allocate a fresh node per mutation and hand retired
// nodes back only after a grace period; a general-purpose heap would pay
// malloc/free per route churned. The pool bump-allocates fixed blocks and
// recycles via a free list. Single-writer (the table's mutator thread)
// on both allocate and release; readers never touch the pool — they only
// dereference nodes the writer published, and a node is recycled only
// after the table's grace period proves no reader can still hold it.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace sf::rcu {

template <typename T>
class NodePool {
 public:
  explicit NodePool(std::size_t block_nodes = 256)
      : block_nodes_(block_nodes == 0 ? 1 : block_nodes) {}

  /// Returns a node from the free list or a fresh slot. Recycled nodes
  /// keep their previous field values: the caller must fully
  /// re-initialize before publishing.
  T* allocate() {
    if (!free_.empty()) {
      T* node = free_.back();
      free_.pop_back();
      return node;
    }
    if (blocks_.empty() || used_in_last_ == block_nodes_) {
      blocks_.push_back(std::make_unique<T[]>(block_nodes_));
      used_in_last_ = 0;
    }
    return &blocks_.back()[used_in_last_++];
  }

  /// Returns a node to the free list. Only safe after the grace period:
  /// no reader may still hold the pointer.
  void release(T* node) { free_.push_back(node); }

  /// Nodes currently handed out (allocated minus freed).
  std::size_t outstanding() const {
    const std::size_t total =
        blocks_.empty()
            ? 0
            : (blocks_.size() - 1) * block_nodes_ + used_in_last_;
    return total - free_.size();
  }

 private:
  std::size_t block_nodes_;
  std::size_t used_in_last_ = 0;
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<T*> free_;
};

}  // namespace sf::rcu

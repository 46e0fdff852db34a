// Epoch manager for read-copy-update table access (DESIGN.md §13).
//
// Two independent notions of "time" govern a concurrent table:
//
//   * The **publish sequence** (`seq`) is the logical version of the table
//     contents: the writer stamps every mutation with the seq at which it
//     becomes visible and then calls `publish(seq)`. A reader *pins* a seq
//     before traversing; every lookup it performs observes exactly the
//     table state as of that seq (MVCC over versioned nodes). Because the
//     seq a reader needs is a pure function of the replayed workload —
//     "how many update ops have a virtual apply-time ≤ this packet" — the
//     verdict stream is byte-identical at any thread count even though the
//     mutator runs genuinely concurrently (ISSUE 7 acceptance criterion).
//
//   * The **reclamation era** orders unlinking against traversal for
//     memory safety, the classic epoch-based-reclamation role (compare
//     ndn-dpdk's URCU `cds_lfht` FIB, SNIPPETS.md). Reclaiming a node is
//     two-phase: `collect()` first *unlinks* every dead node no pinned or
//     future reader can see, then advances the era and stamps the batch;
//     the batch is *freed* only once every active reader has announced a
//     later era (or no readers are active). A reader whose announcement
//     races past the writer's scan is still safe: seq_cst ordering means
//     its traversal began after every unlink in the batch, and an
//     unlinked node is unreachable from the structure roots.
//
// Single writer, many readers. Reader registration is slot-based and
// wait-free on the read side; `pin()` spin-waits only when asked for a
// seq the writer has not published yet (the deterministic-interleave
// rendezvous, not a lock).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace sf::rcu {

class EpochManager {
 public:
  static constexpr std::size_t kMaxReaders = 64;
  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  /// Latest published table version (acquire).
  std::uint64_t applied() const {
    return applied_.load(std::memory_order_acquire);
  }

  /// Writer: make every mutation stamped ≤ seq visible to readers.
  void publish(std::uint64_t seq) {
    applied_.store(seq, std::memory_order_seq_cst);
    // Lost-wakeup-free rendezvous with pin(): a reader registers in
    // waiters_ before re-checking applied_ under the lock; seq_cst on
    // both the applied_ store and the waiters_ load means either we see
    // the waiter here, or it sees our seq and never sleeps.
    if (waiters_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(wait_mu_);
      wait_cv_.notify_all();
    }
  }

  /// Writer: records the caller's keep_from promise before a collect
  /// scans reader pins. `pin_latest` re-checks this floor after pinning:
  /// a pin at s that observes collect_floor ≤ s is safe, because any
  /// later collect with a higher floor must scan pins after the
  /// observation (seq_cst) and will therefore honor the pin.
  void note_collect_floor(std::uint64_t keep_from) {
    std::uint64_t prior = collect_floor_.load(std::memory_order_seq_cst);
    while (prior < keep_from &&
           !collect_floor_.compare_exchange_weak(prior, keep_from,
                                                 std::memory_order_seq_cst)) {
    }
  }

  std::uint64_t collect_floor() const {
    return collect_floor_.load(std::memory_order_seq_cst);
  }

  /// Writer: advance the reclamation era *after* unlinking a batch; the
  /// returned value stamps that batch.
  std::uint64_t advance_era() {
    return era_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Writer: smallest seq any active reader has pinned, or `fallback`
  /// when no reader is pinned. A node dead at seq d may be unlinked once
  /// d ≤ min(min_pinned, lowest seq any future reader may pin).
  std::uint64_t min_pinned(std::uint64_t fallback) const {
    std::uint64_t floor = fallback;
    for (const Slot& slot : slots_) {
      const std::uint64_t pinned = slot.pinned.load(std::memory_order_seq_cst);
      if (pinned != kIdle && pinned < floor) floor = pinned;
    }
    return floor;
  }

  /// Writer: smallest era any active reader has announced, or `fallback`
  /// when no reader is pinned. A limbo batch stamped with era r may be
  /// freed once r ≤ min_announced_era (every active traversal began
  /// after the batch's unlinks).
  std::uint64_t min_announced_era(std::uint64_t fallback) const {
    std::uint64_t floor = fallback;
    for (const Slot& slot : slots_) {
      if (slot.pinned.load(std::memory_order_seq_cst) == kIdle) continue;
      const std::uint64_t era = slot.era.load(std::memory_order_seq_cst);
      if (era < floor) floor = era;
    }
    return floor;
  }

  /// A registered reader. Cheap to pin/unpin per packet; one per thread.
  class Reader {
   public:
    explicit Reader(EpochManager& manager) : manager_(&manager) {
      slot_ = manager.claim_slot();
    }
    ~Reader() {
      if (manager_ != nullptr) manager_->release_slot(slot_);
    }
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Pins table version `seq`, waiting until the writer has published
    /// it. Every lookup between pin and unpin sees state as of `seq`.
    ///
    /// Order matters: the pin is announced BEFORE the era. A collector
    /// whose era scan misses this reader must have scanned before the
    /// pinned store — and the scan runs after its advance_era(), so our
    /// era load (after the pinned store) observes that advance and,
    /// through it, every unlink of the batch it stamped: the traversal
    /// cannot reach the nodes the collector frees. Announced era first,
    /// the collector could free a batch while this reader still walks a
    /// stale chain head into recycled memory.
    void pin(std::uint64_t seq) {
      EpochManager::Slot& slot = manager_->slots_[slot_];
      slot.pinned.store(seq, std::memory_order_seq_cst);
      slot.era.store(manager_->era_.load(std::memory_order_seq_cst),
                     std::memory_order_seq_cst);
      // Bounded spin, brief yield, then block: on an oversubscribed host
      // a spinning reader burns the timeslice of the very writer it is
      // waiting for, and with many readers a yield loop still starves the
      // writer to 1/N of the CPU (the convoy). Parking on the condvar
      // hands the core straight back to the writer.
      std::size_t spins = 0;
      while (manager_->applied_.load(std::memory_order_acquire) < seq) {
        if (++spins < 64) {
          cpu_relax();
        } else if (spins < 80) {
          std::this_thread::yield();
        } else {
          manager_->waiters_.fetch_add(1, std::memory_order_seq_cst);
          {
            std::unique_lock<std::mutex> lock(manager_->wait_mu_);
            manager_->wait_cv_.wait(lock, [&] {
              return manager_->applied_.load(std::memory_order_seq_cst) >=
                     seq;
            });
          }
          manager_->waiters_.fetch_sub(1, std::memory_order_seq_cst);
        }
      }
    }

    /// Pins whatever the writer has published most recently. Retries when
    /// a concurrent collect raced past the candidate version (see
    /// note_collect_floor); the writer's floor never exceeds its applied
    /// seq, so the retry terminates.
    std::uint64_t pin_latest() {
      for (;;) {
        const std::uint64_t seq =
            manager_->applied_.load(std::memory_order_acquire);
        pin(seq);
        if (seq >= manager_->collect_floor_.load(std::memory_order_seq_cst)) {
          return seq;
        }
        unpin();
      }
    }

    void unpin() {
      manager_->slots_[slot_].pinned.store(kIdle, std::memory_order_release);
    }

   private:
    static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
    }

    EpochManager* manager_;
    std::size_t slot_ = 0;
  };

  /// RAII pin for scoped reads.
  class PinGuard {
   public:
    PinGuard(Reader& reader, std::uint64_t seq) : reader_(reader) {
      reader_.pin(seq);
    }
    ~PinGuard() { reader_.unpin(); }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;

   private:
    Reader& reader_;
  };

 private:
  friend class Reader;

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> pinned{kIdle};
    std::atomic<std::uint64_t> era{0};
    std::atomic<bool> claimed{false};
  };

  std::size_t claim_slot() {
    for (std::size_t i = 0; i < kMaxReaders; ++i) {
      bool expected = false;
      if (slots_[i].claimed.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        slots_[i].pinned.store(kIdle, std::memory_order_seq_cst);
        return i;
      }
    }
    throw std::runtime_error("EpochManager: reader slots exhausted");
  }

  void release_slot(std::size_t slot) {
    slots_[slot].pinned.store(kIdle, std::memory_order_seq_cst);
    slots_[slot].claimed.store(false, std::memory_order_release);
  }

  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> era_{0};
  std::atomic<std::uint64_t> collect_floor_{0};
  std::atomic<int> waiters_{0};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  Slot slots_[kMaxReaders];
};

}  // namespace sf::rcu
